package port

import (
	"math"
	"sync"
	"time"
)

// Time is a timestamp in nanoseconds since the start of the run: virtual on
// the simulated backend (unrelated to wall-clock time), monotonic in real
// time.
type Time int64

// Infinity is a timestamp later than any reachable instant.
const Infinity Time = math.MaxInt64

// Duration converts a time span to a time.Duration. Time is kept in
// nanoseconds, so the conversion is exact.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Msg is one delivered mailbox message: who sent it, and what.
type Msg struct {
	From    int // sender port ID
	Payload any // protocol payload
}

// Batch is a multi-payload wire envelope: one physical message carrying
// several protocol payloads coalesced for the same destination (the
// message-plane transport optimization behind Outbox). Every backend
// unpacks the envelope at the receiving mailbox — each payload becomes its
// own Msg, in staged order, with the envelope's sender — so receivers and
// their selective-receive predicates never observe a Batch. The sender
// charges the wire cost of the envelope once (noc.BatchDelay); delivery as
// individual messages is free. Payloads must be non-empty: every backend
// rejects an empty envelope loudly rather than diverge on what a message
// that delivers nothing means.
type Batch struct {
	Payloads []any
}

// batchPool recycles Batch envelopes and their payload backing arrays. The
// lifetime is one wire hop: a sender draws an envelope with GetBatch and
// copies the staged payloads in; the receiving mailbox unpacks it and hands
// it back with PutBatch. Envelopes that are never unpacked (a shutdown drops
// the mailbox) simply fall to the garbage collector.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty envelope from the pool. Its Payloads slice is
// length zero but may retain capacity from a previous hop.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Payloads = b.Payloads[:0]
	return b
}

// PutBatch recycles an unpacked envelope. The caller must be done with b and
// with the Payloads slice header (the payload values themselves have already
// been re-homed into the receiver's mailbox).
func PutBatch(b *Batch) {
	for i := range b.Payloads {
		b.Payloads[i] = nil
	}
	b.Payloads = b.Payloads[:0]
	batchPool.Put(b)
}
