package sim

import (
	"fmt"
	"sync"
	"time"
)

// Msg is a message delivered to a Proc's mailbox.
type Msg struct {
	From    int  // sender proc ID
	SentAt  Time // virtual time the send was issued
	At      Time // virtual delivery time
	Payload any  // application payload
}

// Batch is a multi-payload wire envelope: one physical message carrying
// several protocol payloads coalesced for the same destination (the
// message-plane transport optimization behind port.Outbox). Every backend
// unpacks the envelope at the receiving mailbox — each payload becomes its
// own Msg, in staged order, with the envelope's sender and timestamps — so
// receivers and their selective-receive predicates never observe a Batch.
// The sender charges the wire cost of the envelope once (noc.BatchDelay);
// delivery as individual messages is free. Payloads must be non-empty:
// both backends reject an empty envelope loudly rather than diverge on
// what a message that delivers nothing means.
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

// killSentinel is panicked out of park() during Kernel.Shutdown so that the
// spawn wrapper can unwind a blocked proc's goroutine.
type killSentinel struct{}

// Proc is a simulated process (one core, one service loop, ...). All methods
// except ID and Name must be called only from the proc's own goroutine while
// it is the running process.
type Proc struct {
	k    *Kernel
	id   int
	name string

	wake     chan struct{}
	started  bool
	finished bool

	mbox    MsgQueue
	waiting bool
	tgen    uint64 // generation counter cancelling stale RecvTimeout timers

	// onBatch, when set, observes every Batch envelope unpacked into this
	// proc's mailbox (the payload count). It runs in kernel context at the
	// delivery instant; it must not touch kernel state or block.
	onBatch func(n int)

	rng Rand
}

// SetBatchHook installs fn to observe every multi-payload Batch envelope
// delivered to this proc (called with the envelope's payload count at the
// delivery instant). Install before the kernel runs; a nil fn disables it.
func (p *Proc) SetBatchHook(fn func(n int)) { p.onBatch = fn }

// Spawn creates a new proc running fn and schedules it to start at the
// current virtual time. Spawn may be called from kernel context or from a
// running proc.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		k:    k,
		id:   len(k.procs),
		name: name,
		wake: make(chan struct{}),
		rng:  NewRand(k.seed ^ (0x9e3779b97f4a7c15 * uint64(len(k.procs)+1))),
	}
	k.procs = append(k.procs, p)
	k.live++
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					// A real bug in proc code: hand the panic to the
					// kernel, which re-raises it in Run's caller.
					k.fault = r
				}
			}
			p.finished = true
			k.live--
			k.parked <- struct{}{}
		}()
		<-p.wake
		p.started = true
		fn(p)
	}()
	k.schedule(k.now, event{kind: evResume, proc: p})
	return p
}

// ID returns the proc's kernel-assigned identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Rand returns the proc's deterministic random source.
func (p *Proc) Rand() *Rand { return &p.rng }

// park yields control back to the kernel and blocks until resumed.
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.wake
	if p.k.killing {
		panic(killSentinel{})
	}
}

// Advance consumes d of virtual compute time.
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative advance %v", p.name, d))
	}
	if d == 0 {
		return
	}
	k := p.k
	k.schedule(k.now+Time(d), event{kind: evResume, proc: p})
	p.park()
}

// Yield reschedules the proc at the current instant behind already-pending
// events, letting same-timestamp work elsewhere proceed first.
func (p *Proc) Yield() {
	k := p.k
	k.schedule(k.now, event{kind: evResume, proc: p})
	p.park()
}

// Send delivers payload to dst after the given delay. Messages between the
// same (src, dst) pair are never reordered: if a later send computes an
// earlier delivery time it is clamped to the previous delivery time.
// Send does not block the sender.
func (p *Proc) Send(dst *Proc, payload any, delay time.Duration) {
	p.k.SendFrom(p.id, dst, payload, delay)
}

// SendFrom is Send with an explicit source ID; the kernel may use it from
// event context (e.g. environment-injected messages).
func (k *Kernel) SendFrom(src int, dst *Proc, payload any, delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative send delay %v", delay))
	}
	if b, ok := payload.(*Batch); ok && len(b.Payloads) == 0 {
		panic("sim: empty batch envelope")
	}
	at := k.deliverAt(int32(src), int32(dst.id), k.now+Time(delay))
	k.schedule(at, event{kind: evDeliver, src: int32(src), proc: dst, sent: k.now, payload: payload})
}

// deliver fires an evDeliver event: the message lands in its destination's
// mailbox, and a destination blocked in a receive is resumed.
func (k *Kernel) deliver(ev *event) {
	dst, src := ev.proc, int(ev.src)
	if dst.finished {
		return
	}
	// A Batch envelope is unpacked here, at the mailbox: each payload
	// becomes its own Msg in staged order, so receive loops and
	// selective-receive predicates never see the envelope itself.
	if b, ok := ev.payload.(*Batch); ok {
		for _, pl := range b.Payloads {
			dst.mbox.Push(Msg{From: src, SentAt: ev.sent, At: k.now, Payload: pl})
		}
		if dst.onBatch != nil {
			dst.onBatch(len(b.Payloads))
		}
		PutBatch(b)
	} else {
		dst.mbox.Push(Msg{From: src, SentAt: ev.sent, At: k.now, Payload: ev.payload})
	}
	if dst.waiting {
		dst.waiting = false
		k.resume(dst)
	}
}

// Pending reports how many messages are queued in the proc's mailbox.
func (p *Proc) Pending() int { return p.mbox.Len() }

// Recv blocks until a message is available and returns it.
func (p *Proc) Recv() Msg {
	for p.Pending() == 0 {
		p.waiting = true
		p.park()
	}
	return p.mbox.Pop()
}

// TryRecv returns a queued message, if any, without blocking.
func (p *Proc) TryRecv() (Msg, bool) {
	if p.Pending() == 0 {
		return Msg{}, false
	}
	return p.mbox.Pop(), true
}

// RecvMatch blocks until a message satisfying pred is available and returns
// the earliest-delivered one. Messages that do not satisfy pred stay queued
// in delivery order for later Recv/RecvMatch calls, so a proc with several
// outstanding request/response conversations can await exactly the replies
// it can currently process and leave unrelated traffic untouched.
//
// pred must be a pure function of the message: it may be re-evaluated over
// the same queued message any number of times.
func (p *Proc) RecvMatch(pred func(Msg) bool) Msg {
	for {
		if m, ok := p.mbox.TakeMatch(pred); ok {
			return m
		}
		p.waiting = true
		p.park()
	}
}

// TryRecvMatch returns the earliest queued message satisfying pred, if any,
// without blocking. Non-matching messages stay queued.
func (p *Proc) TryRecvMatch(pred func(Msg) bool) (Msg, bool) {
	return p.mbox.TakeMatch(pred)
}

// RecvTimeout waits up to d for a message. ok is false on timeout.
func (p *Proc) RecvTimeout(d time.Duration) (m Msg, ok bool) {
	if p.Pending() > 0 {
		return p.mbox.Pop(), true
	}
	if d <= 0 {
		return Msg{}, false
	}
	k := p.k
	p.tgen++
	gen := p.tgen
	expired := false
	k.schedule(k.now+Time(d), event{fn: func() {
		// Fire only if the proc is still blocked in the same RecvTimeout.
		if p.waiting && gen == p.tgen && !p.finished {
			p.waiting = false
			expired = true
			k.resume(p)
		}
	}})
	p.waiting = true
	p.park()
	if expired && p.Pending() == 0 {
		return Msg{}, false
	}
	p.tgen++ // cancel the pending timer if a message won the race
	return p.mbox.Pop(), true
}
