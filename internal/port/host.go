package port

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The real-time port runtime: goroutine ports with a selective-receive
// mailbox, hosted by one process. internal/live is a Host on its own (one
// rank, every destination local); internal/net is a Host per rank plus the
// links that carry sends to the ports other ranks host. Everything the two
// share — start gate, clock, fault capture, drain-then-die shutdown, the
// raw inbox and the stash-backed receive family above it — lives here once.

// inboxCap is the channel part of a port's raw inbox. The DTM protocol keeps
// at most a handful of messages in flight to a core (one awaited RPC phase,
// fire-and-forget releases, barrier traffic), so the channel holds what is
// queued in practice and a burst past it spills (HostPort.Push) instead of
// blocking. Chosen from a 4 / 16 / 64 table of the inbox benchmarks and
// live-bank (docs/perf/PR-25.md).
const inboxCap = 16

// spills counts the spills any port of the process has started. Only tests
// read it (export_test.go): it shows that a workload reaches the spill path.
var spills atomic.Uint64

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
func NewHost(seed uint64, remote func(src int, dst Port, payload any)) *Host {
	return &Host{
		seed:    seed,
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
		ch:   make(chan Msg, inboxCap),
		rng:  NewRand(h.seed ^ (0x9e3779b97f4a7c15 * uint64(id+1))),
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
// All methods except ID and Push must be called from the port's own
// goroutine; the stash (messages set aside by selective receive) is
// single-consumer state.
type HostPort struct {
	host *Host
	id   int
	name string

	// The raw inbox: a channel of inboxCap slots, and a spill queue that is
	// used only while the channel is full (like the stash, it keeps the
	// array a burst grew). It is touched only through Push, tryPop, pop and
	// next below.
	ch       chan Msg
	spilling atomic.Bool // raised under mu by the push that starts a spill, lowered when it empties
	mu       sync.Mutex  // guards spill and every change of spilling
	spill    MsgQueue

	// Senders on other cores read ch and spilling on every Send; the owner
	// writes rng and the stash on every receive. Keep the two a cache line
	// apart, so a receive does not invalidate every sender's copy of them.
	_ [64]byte

	rng   Rand
	steps int // Advance calls since the last yield

	// stash holds delivered-but-deferred messages in delivery order:
	// everything RecvMatch skipped — the same MsgQueue the sim kernel's
	// procs use as their mailbox.
	stash MsgQueue

	timer *time.Timer // reused by RecvMatchTimeout and parked pauses
}

var _ Port = (*HostPort)(nil)

// ID returns the spawn-order port identifier.
func (p *HostPort) ID() int { return p.id }

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
// timer. Any non-zero wait yields before it first reads the clock: a thread
// the OS took off the CPU for all of d would otherwise find d over at its
// first look and return without ever giving its P away, and a caller pausing
// in a poll loop would keep whoever it polls for off that P. Messages that
// arrive meanwhile stay queued. A Pause unwinds the goroutine when the Host
// shuts down, like a blocked receive, so a poll loop cannot outlive the run.
func (p *HostPort) Pause(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("port: %s: negative pause %v", p.name, d))
	}
	if d == 0 {
		return
	}
	if d >= parkThreshold {
		runtime.Gosched()
		p.armTimer(d)
		select {
		case <-p.timer.C:
		case <-p.host.quit:
			p.timer.Stop()
			panic(unwind{})
		}
		return
	}
	for start := time.Now(); ; {
		runtime.Gosched()
		select {
		case <-p.host.quit:
			panic(unwind{})
		default:
		}
		if time.Since(start) >= d {
			return
		}
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

// Send delivers payload to dst immediately (the delay parameter models
// simulated latency and is ignored): into the inbox when dst is hosted
// here, through the Host's remote hook otherwise.
func (p *HostPort) Send(dst Port, payload any, delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("port: negative send delay %v", delay))
	}
	if d, ok := dst.(*HostPort); ok {
		d.Push(Msg{From: p.id, Payload: payload})
		return
	}
	if p.host.remote == nil {
		panic(fmt.Sprintf("port: Send to foreign port type %T", dst))
	}
	p.host.remote(p.id, dst, payload)
}

// Push enqueues a raw message. Any goroutine may call it — a port's Send,
// the net engine's connection readers — and it never blocks, so a port may
// send itself any number of messages and a reader never waits on a slow
// port. While nothing is spilled it is one non-blocking channel send. The
// push that finds the channel full starts a spill, and until the receiver
// has emptied it every push appends behind it: each sender's messages stay
// in order.
//
// No wake-up is lost: the receiver parks only after it found the channel
// empty and then the flag down. The spill-starting push raises the flag
// before its last channel try, so if it still finds the channel full, the
// messages filling it arrived after the receiver looked, and its park ends
// on them.
func (p *HostPort) Push(m Msg) {
	if !p.spilling.Load() {
		select {
		case p.ch <- m:
			return
		default:
		}
	}
	p.mu.Lock()
	if !p.spilling.Load() { // the receiver emptied the spill meanwhile, or none began
		p.spilling.Store(true)
		select {
		case p.ch <- m:
			p.spilling.Store(false)
			p.mu.Unlock()
			return
		default:
		}
		spills.Add(1)
	}
	p.spill.Push(m)
	p.mu.Unlock()
}

// tryPop takes the next raw message without blocking: the channel first,
// the spill only once the channel is empty — checked again under mu, because
// a sender's earlier message may have entered the channel after the first
// look and before its later one spilled.
func (p *HostPort) tryPop() (Msg, bool) {
	select {
	case m := <-p.ch:
		return m, true
	default:
	}
	if !p.spilling.Load() {
		return Msg{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case m := <-p.ch:
		return m, true
	default:
	}
	if p.spill.Len() == 0 { // the flag was up only for a push's last channel try
		return Msg{}, false
	}
	m := p.spill.Pop()
	p.spilling.Store(p.spill.Len() > 0)
	return m, true
}

// pop blocks for the next raw message — until t fires, when t is non-nil
// (ok is then false). Once the Host shuts down it keeps returning what is
// queued and unwinds the goroutine only on an empty inbox: a killed
// receiver drains before it dies.
func (p *HostPort) pop(t *time.Timer) (Msg, bool) {
	if m, ok := p.tryPop(); ok {
		return m, true
	}
	var expire <-chan time.Time // nil (never ready) without a timer
	if t != nil {
		expire = t.C
	}
	select {
	case m := <-p.ch:
		return m, true
	case <-expire:
		return p.tryPop() // a push may have raced the timer
	case <-p.host.quit:
	}
	if m, ok := p.tryPop(); ok { // a push may have raced the kill
		return m, true
	}
	panic(unwind{})
}

// next blocks for the next raw message: pop(nil), with the common case — no
// spill, a wait that ends with a channel message — in a frame of its own
// that holds a two-case select and nothing else. A receiver resumes on a
// cold stack, and what it resumes into is measurable: with the receive
// loops going straight through the generic pop (three select cases, timer
// and drain handling in the frame), live-bank's throughput was 8 % lower
// than the parent's in ten of ten pairs (p50 +11 %); with it, 2 % lower in
// seven of ten, inside the run-to-run spread.
func (p *HostPort) next() Msg {
	select {
	case m := <-p.ch:
		return m
	default:
	}
	if !p.spilling.Load() {
		select {
		case m := <-p.ch:
			return m
		case <-p.host.quit:
		}
	}
	m, _ := p.pop(nil)
	return m
}

// fillUntil delivers one raw message to the stash, waiting for it until
// deadline; false when the deadline passes first.
func (p *HostPort) fillUntil(deadline time.Time) bool {
	m, ok := p.tryPop()
	if left := time.Until(deadline); !ok && left > 0 {
		p.armTimer(left)
		m, ok = p.pop(p.timer)
		p.timer.Stop()
	}
	if ok {
		p.stash.Push(m)
	}
	return ok
}

// Recv blocks until a message is available and returns the earliest
// delivered one (stashed messages first — they were delivered earlier).
func (p *HostPort) Recv() Msg {
	if p.stash.Len() > 0 {
		return p.stash.Pop()
	}
	return p.next()
}

// TryRecv returns the earliest queued message without blocking.
func (p *HostPort) TryRecv() (Msg, bool) {
	if p.stash.Len() > 0 {
		return p.stash.Pop(), true
	}
	return p.tryPop()
}

// RecvMatch blocks until a message satisfying pred is available and returns
// the earliest such message; everything else stays queued in delivery
// order.
func (p *HostPort) RecvMatch(pred func(Msg) bool) Msg {
	for {
		if m, ok := p.stash.TakeMatch(pred); ok {
			return m
		}
		p.stash.Push(p.next())
	}
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
