package port

// Outbox stages payloads per destination and hands each destination's
// staged run back at Flush. It is what remains of the retired coalescing
// message plane (docs/RETIRED.md, ablbatch): no protocol code stages
// anything, every payload is its own wire message, and the type stays only
// because the repository benchmark still times a stage-and-flush cycle.
//
// Destinations flush in first-staged order and payloads stay in staged order
// per destination. An Outbox must only be used from one goroutine. The zero
// value is an empty, ready-to-use outbox.
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

// Stage queues payload for dst until the next Flush. dstTag is an opaque
// caller tag returned with the entry at flush time, nbytes the payload's
// modeled size, and now stamps the entry's First when this payload opens it.
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

// recycle clears and retains e's payload backing array for reuse by a later
// Stage. Flush's callback has returned by then, so nothing aliases the slice.
func (o *Outbox) recycle(e *OutEntry) {
	for j := range e.Payloads {
		e.Payloads[j] = nil
	}
	o.spare = append(o.spare, e.Payloads[:0])
	e.Payloads = nil
}

// Flush hands every destination's staged payloads to send, in first-staged
// destination order, and resets the outbox. The outbox RETAINS each entry's
// Payloads backing array after send returns — send must copy anything it
// wants to keep. Flush on an empty outbox is a no-op.
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
