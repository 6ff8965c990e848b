package port

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The real-time port runtime: goroutine ports with a selective-receive
// mailbox, hosted by one process. internal/live is a Host on its own (one
// rank, every destination local); internal/net is a Host per rank plus the
// links that carry sends to the ports other ranks host. Everything the two
// share — start gate, clock, fault capture, drain-then-die shutdown, the
// stash-backed receive family — lives here once; only the raw inbox under a
// port differs (Queue).

// Queue selects the raw inbox under every port of a Host. It is chosen by
// the engine constructor from what the engine is, never by configuration:
// both queues pass the same port-contract suite, and each is the better one
// on its side of the choice (README, "Execution backends", has the
// measurement).
type Queue uint8

const (
	// Bounded is a buffered Go channel: a sender that finds it full blocks
	// (backpressure, not loss). Correct only where every sender is itself a
	// port of the same Host that may block — the live backend.
	Bounded Queue = iota
	// Unbounded is a mutex-guarded queue whose push never blocks. Required
	// where a connection reader pushes: a reader stuck on a full mailbox
	// could not deliver the state-RPC response queued behind it, and the
	// port waiting for that response would deadlock the rank — the net
	// backend.
	Unbounded
)

// boundedCap is a Bounded inbox's channel buffer. The DTM protocol keeps at
// most a handful of requests in flight per core (one awaited RPC phase, plus
// fire-and-forget releases and barrier traffic), so it never fills in
// practice; if it ever does, senders block.
const boundedCap = 4096

// unbounded is the Unbounded raw inbox: a mutex-guarded queue plus a wake
// token for its parked receiver.
type unbounded struct {
	mu   sync.Mutex
	q    MsgQueue
	wake chan struct{} // cap 1: at least one token while q is non-empty
}

func (b *unbounded) push(m Msg) {
	b.mu.Lock()
	b.q.Push(m)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

func (b *unbounded) tryPop() (Msg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.q.Len() == 0 {
		return Msg{}, false
	}
	return b.q.Pop(), true
}

// unwind is panicked out of a blocked receive when the Host shuts down; the
// Spawn wrapper recovers it (the sim kernel's kill pattern).
type unwind struct{}

// Unwind terminates the calling port goroutine the way a shutdown kill
// does. Engine code blocked outside the mailbox on behalf of a port (the net
// backend's state RPCs) calls it once Quit closes.
func Unwind() { panic(unwind{}) }

// Host owns the goroutine ports of one process. Lifecycle: Spawn every port
// first (the goroutines block on an internal gate, so raw-memory setup can
// still happen), then Start releases them and starts the clock, and Shutdown
// drains and kills the ports that are still receiving (the DTM service
// loops). A killed port first empties its mailbox — releases sent by the
// last transactions must still be served so the lock tables quiesce empty —
// and only then unwinds.
type Host struct {
	seed   uint64
	queue  Queue
	remote func(src int, dst Port, payload any)

	started chan struct{} // closed by Start; gates every port goroutine
	quit    chan struct{} // closed by Shutdown; drains and kills receivers
	all     sync.WaitGroup
	start   time.Time // monotonic epoch, set just before started closes

	mu      sync.Mutex
	nextID  int
	fault   any
	running bool
	down    bool
}

// NewHost returns a host whose port RNGs derive from seed exactly like the
// sim kernel's proc RNGs, so workload shapes match across backends. remote
// carries a Send whose destination is not a port of this process (the net
// engine's Stub); nil makes Send local-only.
func NewHost(seed uint64, q Queue, remote func(src int, dst Port, payload any)) *Host {
	return &Host{
		seed:    seed,
		queue:   q,
		remote:  remote,
		started: make(chan struct{}),
		quit:    make(chan struct{}),
	}
}

// Reserve consumes the next spawn-order ID without hosting a port, for an
// actor another process hosts: replicated construction keeps IDs aligned
// across ranks only if every rank counts every actor. Like Spawn, it must
// not be called after Start.
func (h *Host) Reserve() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.running {
		panic("port: Spawn after Start")
	}
	h.nextID++
	return h.nextID - 1
}

// Spawn creates the port with the next spawn-order ID, running fn in its own
// goroutine once Start opens the gate.
func (h *Host) Spawn(name string, fn func(Port)) *HostPort {
	id := h.Reserve()
	p := &HostPort{
		host: h,
		id:   id,
		name: name,
		rng:  NewRand(h.seed ^ (0x9e3779b97f4a7c15 * uint64(id+1))),
	}
	if h.queue == Bounded {
		p.ch = make(chan Msg, boundedCap)
	} else {
		p.q = &unbounded{wake: make(chan struct{}, 1)}
	}
	h.all.Add(1)
	go func() {
		defer h.all.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(unwind); !ok {
					h.Fail(r)
				}
			}
		}()
		<-h.started
		fn(p)
	}()
	return p
}

// Start releases every spawned goroutine and starts the monotonic clock.
func (h *Host) Start() {
	h.mu.Lock()
	if h.running {
		h.mu.Unlock()
		panic("port: Start called twice")
	}
	h.running = true
	h.mu.Unlock()
	h.start = time.Now()
	close(h.started)
}

// Now returns the monotonic time since Start as a Time (nanoseconds);
// zero before Start.
func (h *Host) Now() Time {
	select {
	case <-h.started:
		return Time(time.Since(h.start))
	default:
		return 0
	}
}

// Quit is closed by Shutdown.
func (h *Host) Quit() <-chan struct{} { return h.quit }

// Shutdown drains and terminates every port that is still receiving, waits
// for all goroutines to exit, and re-raises the first fault. Callers must
// first wait for the application workers to finish on their own, so that
// every release message of the final transactions is already sitting in a
// service mailbox.
func (h *Host) Shutdown() {
	h.mu.Lock()
	if !h.down {
		h.down = true
		close(h.quit)
	}
	h.mu.Unlock()
	h.all.Wait()
	h.mu.Lock()
	f := h.fault
	h.fault = nil
	h.mu.Unlock()
	if f != nil {
		panic(f)
	}
}

// Fault returns the first fault recorded by Fail, if any. Watchdogs consult
// it while waiting for workers to drain.
func (h *Host) Fault() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fault
}

// Fail records r as the run's fault unless one is already recorded: a panic
// out of a port goroutine, or an engine-level failure (a broken transport).
// Shutdown re-raises it.
func (h *Host) Fail(r any) {
	h.mu.Lock()
	if h.fault == nil {
		h.fault = r
	}
	h.mu.Unlock()
}

// HostPort is one real-time execution context: a goroutine with a mailbox.
// All methods except ID, Name and Push must be called from the port's own
// goroutine; the stash (messages set aside by selective receive) and the
// batch hook are single-consumer state.
type HostPort struct {
	host *Host
	id   int
	name string

	// The raw inbox, the only part of the runtime that differs between live
	// and net: exactly one of ch (Bounded) and q (Unbounded) is set. It is
	// touched only through push, tryPop and pop below. Raw messages may be
	// Batch envelopes; deliver unpacks them on the receiver's goroutine.
	ch chan Msg
	q  *unbounded

	// Senders on other cores read ch/q on every Send; the owner writes rng
	// and the stash on every receive. Keep the two a cache line apart, so a
	// receive does not invalidate every sender's copy of the inbox pointer.
	_ [64]byte

	rng   Rand
	steps int // Advance calls since the last yield

	// stash holds delivered-but-deferred messages in delivery order:
	// everything RecvMatch/TryRecvMatch skipped — the same MsgQueue the sim
	// kernel's procs use as their mailbox.
	stash MsgQueue

	onBatch func(n int)
	timer   *time.Timer // reused by the deadline receives and parked pauses
}

var _ Port = (*HostPort)(nil)

// SetBatchHook installs fn to observe every multi-payload Batch envelope
// this port unpacks (called with the envelope's payload count, on the
// port's own goroutine). Install it before Host.Start; nil disables it. The
// hook sits outside the Port interface — observers discover it by type
// assertion, as they do on *sim.Proc.
func (p *HostPort) SetBatchHook(fn func(n int)) { p.onBatch = fn }

// ID returns the spawn-order port identifier.
func (p *HostPort) ID() int { return p.id }

// Name returns the name given at Spawn time.
func (p *HostPort) Name() string { return p.name }

// Now returns monotonic nanoseconds since Start.
func (p *HostPort) Now() Time { return Time(time.Since(p.host.start)) }

// Rand returns the port's deterministic random source.
func (p *HostPort) Rand() *Rand { return &p.rng }

// yieldEvery is how many Advance calls a port makes between two yields of
// the processor. A call is one charged step (a memory access, a wrapper, a
// DTM service); the benchmark workloads make 16-21 per operation. Measured
// at 4, 16, 64, 256 and 1024 (docs/perf/PR-24.md): at 4 live-readmostly-tl2
// loses a third of its throughput to scheduler round trips, from 256 up its
// p99 doubles (a port holds its P through a dozen transactions while a
// runnable one waits), live-bank's throughput is flat from 16 up. The 16 us
// of modelled time this constant replaces came to 42-49 calls.
const yieldEvery = 64

// Advance consumes no real time and ignores d: d is the simulator's price
// for a step the hardware here has just executed at its own speed, and no
// real-time backend computes one. What remains of a charged step is
// fairness: a port that computes without ever blocking (a register spin, a
// long read-only scan) must not starve the goroutines around it, so the port
// yields once per yieldEvery calls. This is the one place that decides what
// a modelled cost means in real time. Waiting is Pause.
func (p *HostPort) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("port: %s: negative advance %v", p.name, d))
	}
	if p.steps++; p.steps == yieldEvery {
		p.steps = 0
		runtime.Gosched()
	}
}

// parkThreshold is the shortest Pause that parks the goroutine on a timer
// instead of yielding until the clock says d has passed. A parked port frees
// its P (48 backing-off cores on 2 CPUs must not all stay runnable), but a
// timer on an otherwise idle P fires when the OS wakes the thread: ~1.1 ms
// late on the reference host for any d from 10 us to 500 us, ~0.1 ms late at
// 1 ms (CHANGES.md, PR 20). Below the threshold a wait is therefore exact
// and costs at most this much processor time; from it up, it may overshoot
// by the host's timer granularity.
const parkThreshold = time.Millisecond

// Pause waits until d of the monotonic clock has passed, allocating nothing:
// a short wait yields the processor in a loop (whoever the caller is waiting
// for gets the P as soon as it is runnable), a long one parks on the port's
// timer. Messages that arrive meanwhile stay queued. A parked Pause unwinds
// the goroutine when the Host shuts down, like a blocked receive.
func (p *HostPort) Pause(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("port: %s: negative pause %v", p.name, d))
	}
	if d < parkThreshold {
		for start := time.Now(); time.Since(start) < d; {
			runtime.Gosched()
		}
		return
	}
	p.armTimer(d)
	select {
	case <-p.timer.C:
	case <-p.host.quit:
		p.timer.Stop()
		panic(unwind{})
	}
}

// armTimer starts the port's one reusable timer, to fire after d.
func (p *HostPort) armTimer(d time.Duration) {
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
}

// Yield lets other goroutines run.
func (p *HostPort) Yield() { runtime.Gosched() }

// Send delivers payload to dst immediately (the delay parameter models
// simulated latency and is ignored): into the inbox when dst is hosted
// here, through the Host's remote hook otherwise.
func (p *HostPort) Send(dst Port, payload any, delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("port: negative send delay %v", delay))
	}
	if b, ok := payload.(*Batch); ok && len(b.Payloads) == 0 {
		panic("port: empty batch envelope")
	}
	if d, ok := dst.(*HostPort); ok {
		d.push(Msg{From: p.id, Payload: payload})
		return
	}
	if p.host.remote == nil {
		panic(fmt.Sprintf("port: Send to foreign port type %T", dst))
	}
	p.host.remote(p.id, dst, payload)
}

// Push delivers a raw message from outside any port — the net engine's
// connection readers. Any goroutine may call it.
func (p *HostPort) Push(m Msg) { p.push(m) }

// push enqueues a raw message from any goroutine. A full bounded inbox
// blocks the sender until there is room — or until the Host shuts down,
// when m is dropped (its receiver is being killed anyway); an unbounded one
// never blocks.
func (p *HostPort) push(m Msg) {
	if p.ch == nil {
		p.q.push(m)
		return
	}
	select {
	case p.ch <- m:
	default:
		select {
		case p.ch <- m:
		case <-p.host.quit:
		}
	}
}

// tryPop takes the next raw message without blocking.
func (p *HostPort) tryPop() (Msg, bool) {
	if p.ch == nil {
		return p.q.tryPop()
	}
	select {
	case m := <-p.ch:
		return m, true
	default:
		return Msg{}, false
	}
}

// pop blocks for the next raw message — until t fires, when t is non-nil
// (ok is then false). Once the Host shuts down it keeps returning what is
// queued and unwinds the goroutine only on an empty inbox: a killed
// receiver drains before it dies.
func (p *HostPort) pop(t *time.Timer) (Msg, bool) {
	var expire <-chan time.Time // nil (never ready) without a timer
	if t != nil {
		expire = t.C
	}
	for {
		if m, ok := p.tryPop(); ok {
			return m, true
		}
		expired := false
		if p.ch != nil {
			select {
			case m := <-p.ch:
				return m, true
			case <-expire:
				expired = true
			case <-p.host.quit:
			}
		} else {
			select {
			case <-p.q.wake:
				continue
			case <-expire:
				expired = true
			case <-p.host.quit:
			}
		}
		// One last poll: a push may have raced the timer or the kill.
		if m, ok := p.tryPop(); ok {
			return m, true
		}
		if expired {
			return Msg{}, false
		}
		panic(unwind{})
	}
}

// deliver appends a raw message to the stash, unpacking a Batch envelope
// into one stashed message per payload (staged order, the envelope's
// sender). Receivers therefore only ever observe individual protocol
// payloads, exactly as on the simulated backend.
func (p *HostPort) deliver(m Msg) {
	b, ok := m.Payload.(*Batch)
	if !ok {
		p.stash.Push(m)
		return
	}
	for _, pl := range b.Payloads {
		p.stash.Push(Msg{From: m.From, Payload: pl})
	}
	if p.onBatch != nil {
		p.onBatch(len(b.Payloads))
	}
	PutBatch(b)
}

// next blocks for the next raw message: pop(nil), with the bounded inbox's
// common case — a wait that ends with a message — in a frame of its own
// that holds a two-case select and nothing else. A receiver resumes on a
// cold stack, and what it resumes into is measurable: with the receive
// loops going straight through the generic pop (three select cases, timer
// and drain handling in the frame), live-bank's throughput was 8 % lower
// than the parent's in ten of ten pairs (p50 +11 %); with it, 2 % lower in
// seven of ten, inside the run-to-run spread.
func (p *HostPort) next() Msg {
	if p.ch != nil {
		select {
		case m := <-p.ch:
			return m
		default:
		}
		select {
		case m := <-p.ch:
			return m
		case <-p.host.quit:
		}
	}
	m, _ := p.pop(nil)
	return m
}

// tryFill delivers one raw message to the stash if one is queued.
func (p *HostPort) tryFill() bool {
	m, ok := p.tryPop()
	if ok {
		p.deliver(m)
	}
	return ok
}

// fillUntil is fill bounded by deadline; false when it passes first.
func (p *HostPort) fillUntil(deadline time.Time) bool {
	if p.tryFill() {
		return true
	}
	left := time.Until(deadline)
	if left <= 0 {
		return false
	}
	p.armTimer(left)
	m, ok := p.pop(p.timer)
	p.timer.Stop()
	if ok {
		p.deliver(m)
	}
	return ok
}

// Recv blocks until a message is available and returns the earliest
// delivered one (stashed messages first — they were delivered earlier).
func (p *HostPort) Recv() Msg {
	for p.stash.Len() == 0 {
		p.deliver(p.next())
	}
	return p.stash.Pop()
}

// TryRecv returns the earliest queued message without blocking.
func (p *HostPort) TryRecv() (Msg, bool) {
	if p.stash.Len() == 0 && !p.tryFill() {
		return Msg{}, false
	}
	return p.stash.Pop(), true
}

// RecvMatch blocks until a message satisfying pred is available and returns
// the earliest such message; everything else stays queued in delivery
// order.
func (p *HostPort) RecvMatch(pred func(Msg) bool) Msg {
	for {
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m
		}
		p.deliver(p.next())
	}
}

// TryRecvMatch returns the earliest queued message satisfying pred, if any,
// without blocking. Non-matching messages stay queued.
func (p *HostPort) TryRecvMatch(pred func(Msg) bool) (Msg, bool) {
	for {
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m, true
		}
		if !p.tryFill() {
			return Msg{}, false
		}
	}
}

// RecvTimeout waits up to d for a message; ok is false on timeout.
func (p *HostPort) RecvTimeout(d time.Duration) (Msg, bool) {
	if p.stash.Len() == 0 && !p.fillUntil(time.Now().Add(d)) {
		return Msg{}, false
	}
	return p.stash.Pop(), true
}

// RecvMatchTimeout is RecvMatch bounded by d: the earliest message
// satisfying pred, or ok=false once d elapses without one. It is the
// capability behind the DTM layer's per-RPC deadlines on a transport that
// can lose messages, and sits outside the Port interface because virtual
// time has no use for it.
func (p *HostPort) RecvMatchTimeout(pred func(Msg) bool, d time.Duration) (Msg, bool) {
	deadline := time.Now().Add(d)
	for {
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m, true
		}
		if !p.fillUntil(deadline) {
			return Msg{}, false
		}
	}
}
