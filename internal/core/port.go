package core

import "repro/internal/port"

// Port is the execution port every piece of the DTM protocol runs against:
// one core's identity, clock, deterministic random source, and
// selective-receive mailbox (see repro/internal/port for the full method
// contract). TM2C's portability claim is that the protocol sits on a thin
// message-passing abstraction — Port is that abstraction here, and
// Config.Backend chooses its implementation:
//
//   - BackendSim: a proc of the deterministic discrete-event kernel
//     (*sim.Proc). Advance (a cost) and Pause (a wait) both consume virtual
//     time, Send is charged the platform's modeled latency, and a fixed seed
//     reproduces the run bit-for-bit.
//   - BackendLive, BackendNet: a real goroutine of the real-time runtime
//     (port.HostPort) — in this process on live, in the process of the rank
//     owning the core on net. Now is the monotonic clock, Advance takes no
//     time and ignores its argument (a port yields once per fixed count of
//     calls; no modelled latency is computed), Pause waits in real time, and
//     messages travel as fast as a mailbox push (or a socket) goes — the
//     protocol at whatever rate the hardware sustains.
//
// Application code normally stays above this seam (workers get a *Runtime,
// transactions a *Tx); Port surfaces through SpawnRaw for
// non-transactional baselines and through Runtime.Port for code that needs
// the core's clock or RNG.
type Port = port.Port
