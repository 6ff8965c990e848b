// Package live is the real-concurrency execution backend of TM2C-Go: the
// one-rank case of the real-time port runtime in internal/port. Every port
// is an actual goroutine with a selective-receive mailbox, Advance takes no
// time (the hardware runs as fast as it runs; a port only yields once per
// fixed count of calls), Now is the monotonic clock, and every Send
// destination is local.
//
// The ports implement the same port.Port contract as the deterministic
// simulator's procs (*sim.Proc) and the net backend's, so the whole DTM
// protocol in internal/core runs on them unchanged: lock requests, scatter-gather
// commits, contention management, adaptive placement, irrevocability. What
// changes is the meaning of time — run windows are wall-clock, message
// latency is channel latency, and interleavings are whatever the Go
// scheduler produces, so runs are NOT reproducible. Correctness on this
// backend is checked with invariants (money conservation, empty lock tables
// at quiesce, -race) rather than the simulator's serializability audit.
//
// Lifecycle (port.Host): Spawn all ports first, then Start releases them
// and starts the clock, and Shutdown drains and kills the ports that are
// still serving.
package live

import "repro/internal/port"

// Engine owns the goroutine ports of one live system: a port.Host with no
// remote hook, the same Host (and raw inbox) every net rank runs.
type Engine struct{ *port.Host }

// New returns an engine whose port RNGs derive from seed exactly like the
// sim kernel's proc RNGs, so workload shapes match across backends.
func New(seed uint64) *Engine {
	return &Engine{port.NewHost(seed, nil)}
}

// Spawn creates a port running fn in its own goroutine. The goroutine
// blocks until Start, so all spawning (and all raw-memory setup) happens
// before any worker code runs. Spawn must not be called after Start.
func (e *Engine) Spawn(name string, fn func(port.Port)) port.Port {
	return e.Host.Spawn(name, fn)
}
