// Package port defines the execution-port abstraction of TM2C-Go: the thin
// message-passing and timing interface the whole DTM protocol is written
// against.
//
// TM2C's portability story (§3 of the paper) is that the protocol only ever
// touches a small message-passing library, which is how the same code ran on
// the SCC, the TILE-Gx and cache-coherent x86/SPARC machines. Port is this
// reproduction's version of that seam: internal/core speaks exclusively to
// Port, and a backend decides what a "core" physically is —
//
//   - internal/sim: a proc of the deterministic discrete-event kernel, where
//     Advance and Pause both consume virtual time and exactly one goroutine
//     runs at any instant (the bit-identical default; see SimPort);
//   - internal/live and internal/net: a real goroutine with a selective-
//     receive mailbox (HostPort, host.go), where Now is the monotonic clock,
//     Advance consumes no time (the hardware is as fast as it is; the port
//     yields once per quantum of modelled cost) and Pause waits in real
//     time. The runtime is written once, here; live is a Host on its own and
//     net one Host per rank plus the links between them.
//
// The package sits below every backend and below internal/core, so nothing
// here may import them; the shared message, time and RNG types come from
// internal/sim, which is the one package every backend already builds on.
package port

import (
	"time"

	"repro/internal/sim"
)

// Msg is one delivered mailbox message. It is sim.Msg verbatim: From is the
// sender's port ID and Payload the protocol message; the SentAt/At
// timestamps are meaningful on the simulated backend and zero in real time.
type Msg = sim.Msg

// Port is one core's execution context: its identity, clock, deterministic
// randomness source, and mailbox. All methods except ID must be called only
// from the port's own goroutine (the owning proc or worker); Send may target
// any other Port of the same backend.
//
// The receive family forms a selective-receive mailbox: Recv/TryRecv take
// the earliest delivered message, RecvMatch/TryRecvMatch take the earliest
// message satisfying a pure predicate and leave everything else queued in
// delivery order, and RecvTimeout bounds the wait. The DTM protocol relies
// on exactly these semantics for its correlation-tagged RPC layer.
type Port interface {
	// ID returns the backend-assigned port identifier.
	ID() int
	// Now returns the current time: virtual nanoseconds on the simulated
	// backend, monotonic nanoseconds since Run in real time.
	Now() sim.Time
	// Rand returns the port's deterministic random source. Streams are
	// seeded identically on every backend, so workload shapes (access
	// patterns, jitter draws) match across backends even though live
	// interleavings do not.
	Rand() *sim.Rand
	// Advance charges d of modelled cost for a step the caller has just
	// executed: virtual time on sim; no time in real time, where the step
	// took what it took and the port only yields the processor once per
	// quantum of accumulated cost. Never wait through Advance.
	Advance(d time.Duration)
	// Pause waits for d: back-off, a spin's delay, anything whose purpose is
	// that time passes for the other cores. On sim it is the very event
	// Advance schedules; in real time the port is off its processor (or
	// yielding it) until d of the monotonic clock has elapsed.
	Pause(d time.Duration)
	// Yield lets other runnable work proceed before continuing.
	Yield()
	// Send delivers payload to dst after the backend's notion of delay
	// (modeled latency on sim, ignored on live). It does not block the
	// sender beyond backend-internal flow control.
	Send(dst Port, payload any, delay time.Duration)
	// Recv blocks until a message is available and returns the earliest
	// delivered one.
	Recv() Msg
	// TryRecv returns the earliest queued message without blocking.
	TryRecv() (Msg, bool)
	// RecvMatch blocks until a message satisfying pred is available and
	// returns the earliest such message; non-matching messages stay queued
	// in delivery order. pred must be a pure function of the message.
	RecvMatch(pred func(Msg) bool) Msg
	// TryRecvMatch is RecvMatch without blocking.
	TryRecvMatch(pred func(Msg) bool) (Msg, bool)
	// RecvTimeout waits up to d for a message; ok is false on timeout.
	RecvTimeout(d time.Duration) (Msg, bool)
}

// SimPort adapts a *sim.Proc to the Port interface. It is a zero-cost
// forwarding wrapper: every method maps to the identically-named Proc
// method, so a system built on SimPorts performs the exact same sequence of
// kernel events as one hard-coded on *sim.Proc — the refactor-safety
// property the figure-fingerprint tests pin down.
type SimPort struct{ P *sim.Proc }

// ID returns the proc's kernel-assigned identifier.
func (s SimPort) ID() int { return s.P.ID() }

// Now returns the current virtual time.
func (s SimPort) Now() sim.Time { return s.P.Now() }

// Rand returns the proc's deterministic random source.
func (s SimPort) Rand() *sim.Rand { return s.P.Rand() }

// Advance consumes d of virtual compute time.
func (s SimPort) Advance(d time.Duration) { s.P.Advance(d) }

// Pause waits d of virtual time: the same kernel event as Advance, since in
// virtual time a cost and a wait are both just the clock moving.
func (s SimPort) Pause(d time.Duration) { s.P.Advance(d) }

// Yield reschedules the proc behind already-pending same-instant events.
func (s SimPort) Yield() { s.P.Yield() }

// Send delivers payload to dst (which must wrap a proc of the same kernel)
// after the given virtual delay.
func (s SimPort) Send(dst Port, payload any, delay time.Duration) {
	s.P.Send(dst.(SimPort).P, payload, delay)
}

// Recv blocks until a message is available.
func (s SimPort) Recv() Msg { return s.P.Recv() }

// TryRecv returns a queued message, if any, without blocking.
func (s SimPort) TryRecv() (Msg, bool) { return s.P.TryRecv() }

// RecvMatch blocks for the earliest message satisfying pred.
func (s SimPort) RecvMatch(pred func(Msg) bool) Msg { return s.P.RecvMatch(pred) }

// TryRecvMatch returns the earliest matching message without blocking.
func (s SimPort) TryRecvMatch(pred func(Msg) bool) (Msg, bool) { return s.P.TryRecvMatch(pred) }

// RecvTimeout waits up to d for a message.
func (s SimPort) RecvTimeout(d time.Duration) (Msg, bool) { return s.P.RecvTimeout(d) }

// SetBatchHook forwards the envelope-deliver observer to the proc (see
// sim.Proc.SetBatchHook; HostPort.SetBatchHook documents the contract).
func (s SimPort) SetBatchHook(fn func(n int)) { s.P.SetBatchHook(fn) }
