package sim

import (
	"fmt"
	"time"

	"repro/internal/port"
)

// killSentinel is panicked out of park() during Kernel.Shutdown so that the
// spawn wrapper can unwind a blocked proc's goroutine.
type killSentinel struct{}

// Proc is a simulated process (one core, one service loop, ...) and the sim
// backend's port.Port. All methods except ID must be called only from the
// proc's own goroutine while it is the running process.
type Proc struct {
	k    *Kernel
	id   int
	name string

	wake     chan struct{}
	started  bool
	finished bool

	mbox    port.MsgQueue
	waiting bool

	rng Rand
}

var _ port.Port = (*Proc)(nil)

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

// Pause waits d of virtual time: the same kernel event as Advance, since in
// virtual time a cost and a wait are both just the clock moving.
func (p *Proc) Pause(d time.Duration) { p.Advance(d) }

// Send delivers payload to dst after the given delay. Messages between the
// same (src, dst) pair are never reordered: if a later send computes an
// earlier delivery time it is clamped to the previous delivery time.
// Send does not block the sender. dst must be a proc (of the same kernel).
func (p *Proc) Send(dst port.Port, payload any, delay time.Duration) {
	d, ok := dst.(*Proc)
	if !ok {
		panic(fmt.Sprintf("sim: Send to foreign port type %T", dst))
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative send delay %v", delay))
	}
	k := p.k
	at := k.deliverAt(int32(p.id), int32(d.id), k.now+Time(delay))
	k.schedule(at, event{kind: evDeliver, src: int32(p.id), proc: d, payload: payload})
}

// deliver fires an evDeliver event: the message lands in its destination's
// mailbox, and a destination blocked in a receive is resumed.
func (k *Kernel) deliver(ev *event) {
	dst, src := ev.proc, int(ev.src)
	if dst.finished {
		return
	}
	dst.mbox.Push(port.Msg{From: src, Payload: ev.payload})
	if dst.waiting {
		dst.waiting = false
		k.resume(dst)
	}
}

// Pending reports how many messages are queued in the proc's mailbox.
func (p *Proc) Pending() int { return p.mbox.Len() }

// Recv blocks until a message is available and returns it.
func (p *Proc) Recv() port.Msg {
	for p.Pending() == 0 {
		p.waiting = true
		p.park()
	}
	return p.mbox.Pop()
}

// TryRecv returns a queued message, if any, without blocking.
func (p *Proc) TryRecv() (port.Msg, bool) {
	if p.Pending() == 0 {
		return port.Msg{}, false
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
func (p *Proc) RecvMatch(pred func(port.Msg) bool) port.Msg {
	for {
		if m, ok := p.mbox.TakeMatch(pred); ok {
			return m
		}
		p.waiting = true
		p.park()
	}
}
