package mem

import (
	"sync"
	"time"

	"repro/internal/noc"
)

// TxState is the state held in a core's transaction status register.
//
// The SCC exposes one globally accessible test-and-set register per core;
// TM2C uses it to switch a transaction's status "atomically from pending to
// aborted" (§4.1). We model the register as a (txID, state) word supporting
// compare-and-swap, charged with the platform's remote-atomic latency (in
// virtual time) when accessed from another core and free when a core
// inspects its own register.
type TxState uint8

const (
	// TxFree means no transaction is active on the core.
	TxFree TxState = iota
	// TxPending is an executing, abortable transaction.
	TxPending
	// TxCommitting is a transaction that holds all its write locks and is
	// persisting its write set; it can no longer be aborted.
	TxCommitting
	// TxAborted marks a transaction killed by a contention manager.
	TxAborted
	// TxCommitted marks a completed transaction.
	TxCommitted
)

func (s TxState) String() string {
	switch s {
	case TxFree:
		return "free"
	case TxPending:
		return "pending"
	case TxCommitting:
		return "committing"
	case TxAborted:
		return "aborted"
	case TxCommitted:
		return "committed"
	default:
		return "invalid"
	}
}

type statusWord struct {
	txID  uint64
	state TxState
}

// Registers models the per-core atomic registers: one transaction status
// word and one test-and-set bit per core. The registers are hardware
// atomics, so the model must stay atomic under real concurrency too: a
// mutex linearizes every operation (uncontended — and therefore
// behavior-free — on the single-threaded simulation backend). The mutex is
// never held across an Advance.
type Registers struct {
	pl     *noc.Platform // the price of a remote operation; nil in real time
	mu     sync.Mutex
	status []statusWord
	tas    []bool

	// owns/fwd, when set, forward operations on registers whose core lives
	// in another process (the net backend partitions registers by the rank
	// owning the core). Local-core operations (SetStatusLocal,
	// LoadStatusLocal, CASStatusLocal) never forward: a core's own register
	// always lives in its own process. See SetRemote.
	owns func(core int) bool
	fwd  RemoteRegs

	// RemoteOps counts remote register operations (guarded by mu); read it
	// after a run.
	RemoteOps uint64
}

// RemoteRegs is the net backend's cross-process register hook: raw,
// latency-free atomic operations executed in the process owning the target
// core. Implementations must be safe for concurrent use.
type RemoteRegs interface {
	CASStatus(owner int, txID uint64, from, to TxState) (swapped bool, obsTxID uint64, obsState TxState)
	TAS(reg int) bool
	TASRelease(reg int)
}

// SetRemote installs the forwarding hook: operations targeting a core for
// which owns reports false are executed remotely through fwd (after local
// latency charging). Install before the engine releases any worker
// goroutine; the fields are read without synchronization after that.
func (r *Registers) SetRemote(owns func(core int) bool, fwd RemoteRegs) {
	r.owns = owns
	r.fwd = fwd
}

// NewRegisters returns registers for every core of the platform, a remote
// operation charged the platform's modelled round trip: the registers of a
// simulated machine.
func NewRegisters(pl *noc.Platform) *Registers {
	r := NewRealtimeRegisters(pl.NumCores())
	r.pl = pl
	return r
}

// NewRealtimeRegisters returns registers for n cores on a backend whose
// time is the host's: a remote operation costs the mutex it takes.
func NewRealtimeRegisters(n int) *Registers {
	return &Registers{status: make([]statusWord, n), tas: make([]bool, n)}
}

// chargeRemote counts one remote operation by core src on core reg's register
// and advances p by its price.
func (r *Registers) chargeRemote(p Ctx, src, reg int) {
	r.mu.Lock()
	r.RemoteOps++
	r.mu.Unlock()
	var d time.Duration
	if r.pl != nil {
		d = r.pl.AtomicDelay(src, reg)
	}
	p.Advance(d)
}

// Cores returns how many cores have a register here.
func (r *Registers) Cores() int { return len(r.status) }

// SetStatusLocal installs (txID, state) in owner's own register. Local
// register access is free.
func (r *Registers) SetStatusLocal(owner int, txID uint64, state TxState) {
	r.mu.Lock()
	r.status[owner] = statusWord{txID: txID, state: state}
	r.mu.Unlock()
}

// LoadStatusLocal reads owner's own register without latency.
func (r *Registers) LoadStatusLocal(owner int) (txID uint64, state TxState) {
	r.mu.Lock()
	w := r.status[owner]
	r.mu.Unlock()
	return w.txID, w.state
}

// CASStatusLocal atomically replaces (txID, from) with (txID, to) on the
// caller's own register, without latency. It reports whether the swap
// happened.
func (r *Registers) CASStatusLocal(owner int, txID uint64, from, to TxState) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.casLocked(owner, txID, from, to)
}

// casLocked is CASStatusLocal with mu held.
func (r *Registers) casLocked(owner int, txID uint64, from, to TxState) bool {
	w := r.status[owner]
	if w.txID != txID || w.state != from {
		return false
	}
	r.status[owner] = statusWord{txID: txID, state: to}
	return true
}

// CASStatusRemoteObserve attempts CASStatusLocal's swap from core src,
// charging the remote atomic round-trip latency to p, and returns the
// register word observed at the register (after the swap, if it happened).
// The DTM service uses the observation to distinguish an enemy that is
// committing (non-abortable) from a stale lock left by a finished attempt.
// The swap and the observation are one atomic step.
func (r *Registers) CASStatusRemoteObserve(p Ctx, src, owner int, txID uint64, from, to TxState) (swapped bool, obsTxID uint64, obsState TxState) {
	r.chargeRemote(p, src, owner)
	if r.fwd != nil && !r.owns(owner) {
		return r.fwd.CASStatus(owner, txID, from, to)
	}
	return r.CASStatusObserveRaw(owner, txID, from, to)
}

// CASStatusObserveRaw is the latency-free swap-and-observe: the serving
// side of a forwarded CASStatusRemoteObserve.
func (r *Registers) CASStatusObserveRaw(owner int, txID uint64, from, to TxState) (swapped bool, obsTxID uint64, obsState TxState) {
	r.mu.Lock()
	swapped = r.casLocked(owner, txID, from, to)
	w := r.status[owner]
	r.mu.Unlock()
	return swapped, w.txID, w.state
}

// TAS performs a remote test-and-set on core reg's register from core src:
// it sets the bit and returns its previous value. The caller acquired the
// "lock" iff TAS returns false.
func (r *Registers) TAS(p Ctx, src, reg int) bool {
	r.chargeRemote(p, src, reg)
	if r.fwd != nil && !r.owns(reg) {
		return r.fwd.TAS(reg)
	}
	return r.TASRaw(reg)
}

// TASRaw is the latency-free test-and-set: the serving side of a forwarded
// TAS.
func (r *Registers) TASRaw(reg int) bool {
	r.mu.Lock()
	old := r.tas[reg]
	r.tas[reg] = true
	r.mu.Unlock()
	return old
}

// TASRelease clears core reg's test-and-set bit from core src.
func (r *Registers) TASRelease(p Ctx, src, reg int) {
	r.chargeRemote(p, src, reg)
	if r.fwd != nil && !r.owns(reg) {
		r.fwd.TASRelease(reg)
		return
	}
	r.TASReleaseRaw(reg)
}

// TASReleaseRaw is the latency-free bit clear: the serving side of a
// forwarded TASRelease.
func (r *Registers) TASReleaseRaw(reg int) {
	r.mu.Lock()
	r.tas[reg] = false
	r.mu.Unlock()
}
