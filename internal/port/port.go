// Package port defines the execution-port abstraction of TM2C-Go: the thin
// message-passing and timing interface the whole DTM protocol is written
// against, and the value types that cross it (Time, Msg, MsgQueue, Rand).
//
// TM2C's portability story (§3 of the paper) is that the protocol only ever
// touches a small message-passing library, which is how the same code ran on
// the SCC, the TILE-Gx and cache-coherent x86/SPARC machines. Port is this
// reproduction's version of that seam: nine methods, each of which the
// protocol calls (the root layering test holds it to that). internal/core
// speaks exclusively to Port, and a backend decides what a "core"
// physically is —
//
//   - internal/sim: a proc of the deterministic discrete-event kernel
//     (*sim.Proc is a Port), where Advance and Pause both consume virtual
//     time and exactly one goroutine runs at any instant (the bit-identical
//     default);
//   - internal/live and internal/net: a real goroutine with a selective-
//     receive mailbox (HostPort, host.go), where Now is the monotonic clock,
//     Advance consumes no time (the hardware is as fast as it is; the port
//     yields once per yieldEvery calls) and Pause waits in real time. The
//     runtime is written once, here; live is a Host on its own and net one
//     Host per rank plus the links between them.
//
// The package is a leaf: it sits below every backend and below
// internal/core and imports nothing of this module, so the codec, the
// tracer and a histogram can name a Time or a Msg without linking a backend.
package port

import "time"

// Port is one core's execution context: its identity, clock, deterministic
// randomness source, and mailbox. All methods except ID must be called only
// from the port's own goroutine (the owning proc or worker); Send may target
// any other Port of the same backend.
//
// The receive family forms a selective-receive mailbox: Recv/TryRecv take
// the earliest delivered message, and RecvMatch takes the earliest message
// satisfying a pure predicate and leaves everything else queued in delivery
// order. The DTM protocol relies on exactly these semantics for its
// correlation-tagged RPC layer. The interface holds only what the protocol
// calls; a backend's extra (HostPort.RecvMatchTimeout) sits outside it and
// is found by type assertion.
type Port interface {
	// ID returns the backend-assigned port identifier.
	ID() int
	// Now returns the current time: virtual nanoseconds on the simulated
	// backend, monotonic nanoseconds since Run in real time.
	Now() Time
	// Rand returns the port's deterministic random source. Streams are
	// seeded identically on every backend, so workload shapes (access
	// patterns, jitter draws) match across backends even though live
	// interleavings do not.
	Rand() *Rand
	// Advance charges d of modelled cost for a step the caller has just
	// executed: virtual time on sim; no time in real time, where the step
	// took what it took, d is ignored and the port only yields the processor
	// once per fixed count of calls. Never wait through Advance.
	Advance(d time.Duration)
	// Pause waits for d: back-off, a spin's delay, anything whose purpose is
	// that time passes for the other cores. On sim it is the very event
	// Advance schedules; in real time the port is off its processor (or
	// yielding it) until d of the monotonic clock has elapsed.
	Pause(d time.Duration)
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
}
