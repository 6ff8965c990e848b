package port

// Outbox is the coalescing half of the message plane: protocol endpoints
// stage typed payloads into it per destination and flush at explicit
// protocol points (the end of a commit scatter burst, of a release burst,
// of a DTM dispatch that produced several responses). Payloads staged for
// the same destination between two flushes leave as ONE wire message — a
// Batch envelope — so the per-message fixed cost (send/receive software
// overhead, hop traversal, per-peer polling) is paid once and only the
// marginal payload bytes grow with the burst.
//
// The Outbox is deliberately mechanism-free: it knows nothing about delay
// models or statistics. Flush hands each destination's staged payloads back
// to the owner, which charges its own cost model (noc.BatchDelay on the
// simulated backend) and performs the Send. Destinations flush in
// first-staged order and payloads stay in staged order per destination, so
// a deterministic backend schedules identical events for identical runs.
//
// An Outbox belongs to one execution port and must only be used from that
// port's goroutine. The zero value is an empty, ready-to-use outbox.
type Outbox struct {
	entries []OutEntry
	index   map[int]int // destination port ID → entries index
	spare   [][]any     // retained payload backing arrays, reused by Stage
}

// OutEntry is the staged traffic for one destination.
type OutEntry struct {
	Dst      Port  // destination port
	DstTag   int   // caller-supplied destination tag (e.g. physical core ID)
	Payloads []any // staged payloads, in staged order
	Bytes    int   // summed modeled payload bytes
	First    Time  // when the entry's first payload was staged
}

// Stage queues payload for dst, to be sent at the next Flush. dstTag is an
// opaque caller tag returned with the entry at flush time (the DTM protocol
// stores the destination's physical core ID, which its cost model needs and
// the port interface does not expose). nbytes is the payload's modeled
// on-wire size; now stamps the entry's First when this payload opens it, so
// flush policies can age-bound staged traffic.
func (o *Outbox) Stage(dst Port, dstTag int, payload any, nbytes int, now Time) {
	if o.index == nil {
		o.index = make(map[int]int)
	}
	id := dst.ID()
	i, ok := o.index[id]
	if !ok {
		i = len(o.entries)
		o.index[id] = i
		var ps []any
		if n := len(o.spare); n > 0 {
			ps, o.spare = o.spare[n-1], o.spare[:n-1]
		}
		o.entries = append(o.entries, OutEntry{Dst: dst, DstTag: dstTag, Payloads: ps, First: now})
	}
	e := &o.entries[i]
	e.Payloads = append(e.Payloads, payload)
	e.Bytes += nbytes
}

// Pending returns the number of staged payloads across all destinations.
func (o *Outbox) Pending() int {
	n := 0
	for i := range o.entries {
		n += len(o.entries[i].Payloads)
	}
	return n
}

// recycle clears and retains e's payload backing array for reuse by a later
// Stage. Callers must be done with e.Payloads: the send path copies payloads
// into a pooled Batch envelope (or sends the singleton payload bare), so by
// the time recycle runs nothing aliases the slice.
func (o *Outbox) recycle(e *OutEntry) {
	for j := range e.Payloads {
		e.Payloads[j] = nil
	}
	o.spare = append(o.spare, e.Payloads[:0])
	e.Payloads = nil
}

// Flush hands every destination's staged payloads to send, in first-staged
// destination order, and resets the outbox. The caller owns the actual
// transmission: one wire message per entry, a bare payload for singleton
// entries and a Batch envelope otherwise (see the owner's send path). The
// outbox RETAINS each entry's Payloads backing array after send returns —
// send must copy anything it wants to keep (the envelope path copies into a
// pooled Batch). Flush on an empty outbox is a no-op.
func (o *Outbox) Flush(send func(e *OutEntry)) {
	if len(o.entries) == 0 {
		return
	}
	for i := range o.entries {
		send(&o.entries[i])
		o.recycle(&o.entries[i])
	}
	o.entries = o.entries[:0]
	for id := range o.index {
		delete(o.index, id)
	}
}
