// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel models a many-core chip in virtual time: every simulated core is
// a Proc backed by a real goroutine, but the kernel guarantees that exactly
// one goroutine (either the kernel's event loop or a single Proc) executes at
// any instant. Control is handed off through unbuffered channels, so no
// shared state needs locking and, given a fixed seed, every run produces an
// identical event sequence.
//
// Procs interact with the simulation only through their *Proc handle, which
// is a port.Port — the seam the DTM protocol is written against — so this
// package stands beside internal/live and internal/net as one of three
// backends: Advance consumes virtual compute time, Send/Recv exchange
// messages with a caller-supplied delivery delay, and Rand supplies
// deterministic pseudo-randomness. Higher layers (internal/noc,
// internal/core) decide what the delays mean physically.
package sim

import "repro/internal/port"

// The value types every backend shares are defined in internal/port, the leaf
// below all three backends. These four names stay as aliases only because
// bench/, frozen between benchmark PRs, spells them through this package
// (the next benchmark PR drops them); the kernel's own source reads through
// them.
type (
	// Time is a virtual timestamp in nanoseconds since the start of the
	// simulation. It is unrelated to wall-clock time.
	Time = port.Time
	// Rand is a proc's deterministic pseudo-random source.
	Rand = port.Rand
)

// Infinity is a timestamp later than any reachable simulation instant.
const Infinity = port.Infinity

// NewRand returns a source seeded from seed.
func NewRand(seed uint64) Rand { return port.NewRand(seed) }

// event is one scheduled occurrence: a proc to resume or a message to
// deliver, its fields inline so that scheduling allocates nothing. Events
// with equal timestamps fire in scheduling order (seq).
type event struct {
	at      Time
	seq     uint64
	kind    evKind
	src     int32 // evDeliver: sender proc ID
	proc    *Proc // evResume: the proc to run; evDeliver: the destination
	payload any   // evDeliver
}

// evKind says what an event does when it fires.
type evKind uint8

const (
	evResume  evKind = iota // hand control to proc: it starts (Spawn) or its Advance ends
	evDeliver               // push payload into proc's mailbox, waking a blocked receive
)

// before is the queue's total order: (at, seq), seq unique.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is a binary min-heap ordered by before; typed, because
// container/heap boxes an event into an interface on every Push and Pop.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0 && q[i].before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	*h = q
}

// pop removes and returns the earliest event of a non-empty queue.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], event{} // the vacated slot drops its references
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if c >= n || !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q[:n]
	return top
}

// Kernel is the discrete-event scheduler. The zero value is not usable; use
// New.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap

	procs  []*Proc
	live   int // procs spawned and not yet finished
	parked chan struct{}

	// fifoLast tracks the last delivery timestamp per (src, dst) pair so
	// that messages between the same two procs are never reordered even
	// when later messages are assigned smaller delays (e.g. under
	// congestion models).
	fifoLast map[uint64]Time

	killing bool
	seed    uint64
	// fault holds a panic value captured from a proc goroutine; resume
	// re-raises it in kernel context so it propagates out of Run to the
	// simulation's caller instead of killing the process.
	fault any

	eventsRun uint64
	hashing   bool
	hash      uint64
}

// New returns a kernel whose process RNGs derive from seed.
func New(seed uint64) *Kernel {
	return &Kernel{
		parked:   make(chan struct{}),
		fifoLast: make(map[uint64]Time),
		seed:     seed,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsRun reports how many events have fired so far. It is a cheap proxy
// for simulation effort, useful in tests and benchmarks.
func (k *Kernel) EventsRun() uint64 { return k.eventsRun }

// EnableTraceHash makes the kernel fold every fired event's (time, seq) pair
// into an FNV-1a hash, retrievable with TraceHash. Two runs of the same
// workload with the same seed must produce identical hashes.
func (k *Kernel) EnableTraceHash() { k.hashing = true; k.hash = 1469598103934665603 }

// TraceHash returns the accumulated event-trace hash (see EnableTraceHash).
func (k *Kernel) TraceHash() uint64 { return k.hash }

// schedule enqueues ev to fire at timestamp at (clamped to now).
func (k *Kernel) schedule(at Time, ev event) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	ev.at, ev.seq = at, k.seq
	k.events.push(ev)
}

// Run executes events until the event queue is empty (which implies every
// proc has finished or is blocked forever) or until the virtual deadline
// passes, whichever comes first. It returns the number of events fired
// during this call. Run(Infinity) drains the simulation.
func (k *Kernel) Run(until Time) uint64 {
	var fired uint64
	for len(k.events) > 0 && !k.killing {
		if k.events[0].at > until {
			if until > k.now {
				k.now = until
			}
			return fired
		}
		ev := k.events.pop()
		k.now = ev.at
		k.eventsRun++
		fired++
		if k.hashing {
			k.hash ^= uint64(ev.at)
			k.hash *= 1099511628211
			k.hash ^= ev.seq
			k.hash *= 1099511628211
		}
		if ev.kind == evResume {
			k.resume(ev.proc)
		} else {
			k.deliver(&ev)
		}
	}
	return fired
}

// Live reports how many spawned procs have not yet finished.
func (k *Kernel) Live() int { return k.live }

// Shutdown force-terminates every proc that is still blocked, releasing
// their goroutines. It must be called from kernel context (i.e. not from
// inside a proc). After Shutdown the kernel can still be inspected but no
// further events run.
func (k *Kernel) Shutdown() {
	k.killing = true
	for _, p := range k.procs {
		if !p.finished && p.started {
			// Wake the proc; park() observes killing and panics with
			// killSentinel, which the spawn wrapper recovers.
			k.resume(p)
		}
	}
	k.events = nil
}

// resume transfers control to p and blocks until p parks again or finishes.
// If the proc's goroutine died with a panic, the panic is re-raised here, in
// kernel context.
func (k *Kernel) resume(p *Proc) {
	p.wake <- struct{}{}
	<-k.parked
	if k.fault != nil {
		f := k.fault
		k.fault = nil
		panic(f)
	}
}

type pairKey = uint64

func mkPair(src, dst int32) pairKey { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// deliverAt computes the FIFO-respecting delivery time for a message from
// src to dst wanted at time at, and records it.
func (k *Kernel) deliverAt(src, dst int32, at Time) Time {
	key := mkPair(src, dst)
	if last, ok := k.fifoLast[key]; ok && at < last {
		at = last
	}
	k.fifoLast[key] = at
	return at
}
