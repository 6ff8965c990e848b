package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// A round is one complete life of a workload's system: construct, populate,
// fixed warm-up, forced GC, timed window, end-of-run checks, teardown. An
// untraced run is one long round; a traced run is several short ones.

// roundCfg sizes one round. Durations are wall time on the live and net
// backends and are scaled to virtual time by spec.virtPerWall on sim.
type roundCfg struct {
	warmup time.Duration
	window time.Duration
	traced bool
}

// roundResult is everything one round measured.
type roundResult struct {
	setupS    float64 // construct + populate in host seconds, plus the warm-up's fixed length
	windowS   float64 // timed window, host seconds
	clockMs   float64 // timed window on the backend's own clock, ms
	ops       uint64  // operations completed inside the window
	failed    uint64  // operations that returned an error or tripped an invariant
	lat       lathist // per-op latency on the backend's clock, all workers
	mallocs   uint64  // heap allocations across the window
	heapMB    float64 // smallest live heap after a forced GC, sampled across the window
	simEvents uint64  // kernel events of the whole run (sim only)
	runHostS  float64 // Run call, host seconds (whole run; sim.* rates)
	stats     *core.Stats
	gatherUs  float64 // mean commit gather phase, µs on the backend's clock
	scatterUs float64 // mean commit scatter phase
	spans     spanTotals
	kept      []span // sample of complete op span trees (traced rounds)
}

// gate lines the workers up at the two edges of the timed window, picks the
// one that samples the process-wide counters there, and collects the heap
// samples taken in between. On live and net the workers are real goroutines:
// they wait for each other so the forced GC and the samples happen while
// nobody runs, and they all start together. On sim the workers are
// coroutines of a single-threaded kernel that cannot block on each other
// outside virtual time; the first to cross the warm-up instant samples on
// entry and the last one out samples on exit.
type gate struct {
	n        int32
	blocking bool
	arrived  atomic.Bool
	entered  atomic.Int32
	left     atomic.Int32
	release  chan struct{}

	t0        time.Time
	workStart time.Time // the first worker began its warm-up: set-up is over
	winStart  time.Time
	winEnd    time.Time
	mallocs0  uint64
	mallocs1  uint64
	heap      []uint64 // live-heap samples; written by worker 0, then by the last worker out
}

// heapSamples is how many times worker 0 samples the live heap inside the
// window; the last worker out adds one more and the run reports the smallest.
// What is in flight when a sample is taken — frames, pooled buffers, a
// directory leaf about to be merged — only ever adds to the resident set, so
// the smallest sample is the steady one: a single sample at the end spread
// over 9 % on live-place-hier, whose directory materialises and merges
// leaves every few milliseconds, and the median of these swung between 0.28
// and 0.7 MB on net-bank with the buffers in flight.
const heapSamples = 8

func newGate(n int, blocking bool) *gate {
	return &gate{n: int32(n), blocking: blocking, release: make(chan struct{}), heap: make([]uint64, 0, heapSamples+1)}
}

func (g *gate) arrive() {
	if g.arrived.CompareAndSwap(false, true) {
		g.workStart = time.Now()
	}
}

func (g *gate) sampleEnter() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.mallocs0 = m.Mallocs
	g.winStart = time.Now()
}

func (g *gate) enter() {
	k := g.entered.Add(1)
	if !g.blocking {
		if k == 1 {
			g.sampleEnter()
		}
		return
	}
	if k == g.n {
		g.sampleEnter()
		close(g.release)
		return
	}
	<-g.release
}

func (g *gate) leave() {
	if g.left.Add(1) != g.n {
		return
	}
	g.winEnd = time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.mallocs1 = m.Mallocs
	g.sampleHeap()
}

// sampleHeap records the live heap after a forced collection.
func (g *gate) sampleHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.heap = append(g.heap, m.HeapAlloc)
}

// worker is one application core's load generator. Everything it touches
// inside the window is allocated before the round starts.
type worker struct {
	sp    *spec
	idx   int
	rt    *core.Runtime
	clock core.Port
	accts core.TArray[uint64]
	rng   sim.Rand
	lat   lathist
	tr    *spanRec // nil outside traced windows
	ops   uint64
	bad   uint64

	// Operation arguments and results. The transaction bodies are method
	// values bound once per worker, so issuing an op builds no closure.
	a, b     int
	flip     bool
	tripped  bool
	transfer func(*core.Tx) error
	scan     func(*core.Tx) error
	pairs    func(*core.Tx) error
	pairXfer func(*core.Tx) error
}

func newWorker(sp *spec, seed uint64, idx int) *worker {
	w := &worker{sp: sp, idx: idx, rng: sim.NewRand(seed ^ 0x9e3779b97f4a7c15*uint64(idx+1))}
	w.transfer, w.scan, w.pairs, w.pairXfer = w.transferBody, w.scanBody, w.pairsBody, w.pairXferBody
	return w
}

// run is the worker loop: closed loop, the next operation is issued when the
// previous one returns. One clock read per operation serves as the end of
// one op and the start of the next.
func (w *worker) run(rt *core.Runtime, accts core.TArray[uint64], g *gate, warmEnd, window sim.Time, tr *spanRec) {
	w.rt, w.clock, w.accts = rt, rt.Port(), accts
	g.arrive()
	for w.clock.Now() < warmEnd {
		w.sp.op(w)
		rt.AddOps(1)
	}
	g.enter()
	t := w.clock.Now()
	end := t + window
	if !g.blocking {
		end = warmEnd + window // sim: one virtual window for every core
	}
	if tr != nil {
		tr.clock = w.clock
		w.tr = tr
	}
	heapStep := window / heapSamples
	nextHeap := end // workers other than 0 never sample
	if w.idx == 0 {
		nextHeap = end - window + heapStep/2
	}
	for {
		if w.tr != nil {
			w.tr.opBegin(t)
		}
		w.tripped = false
		err := w.sp.op(w)
		rt.AddOps(1)
		now := w.clock.Now()
		if now >= end {
			if w.tr != nil {
				w.tr.dropOp()
			}
			break // straddles the window's end: not measured
		}
		w.lat.record(now - t)
		w.ops++
		if err != nil || w.tripped {
			w.bad++
		}
		if w.tr != nil {
			w.tr.opEnd(now)
		}
		if now >= nextHeap {
			g.sampleHeap()
			nextHeap += heapStep
			now = w.clock.Now() // the collection is not part of the next op
		}
		t = now
	}
	w.tr = nil
	g.leave()
}

// runRound executes one round of sp and checks its outputs.
func runRound(sp *spec, seed uint64, rc roundCfg, sockDir string) (res *roundResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", sp.name, p)
		}
	}()
	cfg := sp.config(seed)
	warm, window := sim.Time(rc.warmup), sim.Time(rc.window)
	if sp.backend == core.BackendSim {
		warm = sim.Time(float64(warm) * sp.virtPerWall)
		window = sim.Time(float64(window) * sp.virtPerWall)
	}
	nw := sp.cores - sp.cores/2
	workers := make([]*worker, nw)
	tracers := make([]*spanRec, nw)
	for i := range workers {
		workers[i] = newWorker(sp, seed, i)
		if rc.traced {
			tracers[i] = newSpanRec(i, keepSpans/nw)
		}
	}
	g := newGate(nw, sp.backend != core.BackendSim)
	runtime.GC() // the previous round's garbage is not this round's set-up
	g.t0 = time.Now()

	ranks := 1
	if sp.backend == core.BackendNet {
		ranks = cfg.Net.Ranks
		if err := os.MkdirAll(sockDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(sockDir)
		cfg.Net.Addrs = make([]string, ranks)
		for r := range cfg.Net.Addrs {
			cfg.Net.Addrs[r] = fmt.Sprintf("unix:%s/r%d", sockDir, r)
		}
	}
	// Every rank builds the identical system (replicated construction);
	// off the net backend there is one rank.
	systems := make([]*core.System, ranks)
	arrays := make([]core.TArray[uint64], ranks)
	for r := 0; r < ranks; r++ {
		c := cfg
		if c.Net != nil {
			n := *c.Net
			n.Rank = r
			c.Net = &n
		}
		s, err := core.NewSystem(c)
		if err != nil {
			return nil, fmt.Errorf("%s: NewSystem: %w", sp.name, err)
		}
		systems[r] = s
		arrays[r] = core.NewTArray(s, core.Uint64Codec(), sp.accounts, uint64(initialBalance))
		accts := arrays[r]
		s.SpawnWorkers(func(rt *core.Runtime) {
			i := rt.AppIndex()
			workers[i].run(rt, accts, g, warm, window, tracers[i])
		})
	}
	runStart := time.Now()
	stats := make([]*core.Stats, ranks)
	faults := make([]any, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { faults[r] = recover() }()
			stats[r] = systems[r].RunToCompletion()
		}(r)
	}
	stats[0] = systems[0].RunToCompletion()
	wg.Wait()
	runHost := time.Since(runStart)
	for r, f := range faults {
		if f != nil {
			return nil, fmt.Errorf("%s: rank %d: panic: %v", sp.name, r, f)
		}
	}

	res = &roundResult{
		setupS:   g.workStart.Sub(g.t0).Seconds() + rc.warmup.Seconds(),
		windowS:  rc.window.Seconds(),
		clockMs:  float64(window) / 1e6,
		mallocs:  g.mallocs1 - g.mallocs0,
		heapMB:   float64(slices.Min(g.heap)) / (1 << 20),
		runHostS: runHost.Seconds(),
		stats:    stats[0],
	}
	if sp.backend == core.BackendSim {
		res.windowS = g.winEnd.Sub(g.winStart).Seconds()
		res.simEvents = systems[0].K.EventsRun()
	}
	for i, w := range workers {
		res.ops += w.ops
		res.failed += w.bad
		res.lat.merge(&w.lat)
		if tracers[i] != nil {
			res.spans.add(&tracers[i].tot)
			res.kept = append(res.kept, tracers[i].keep...)
		}
	}
	res.failed += stats[0].RPCTimeouts // each one stalled an op for the RPC deadline
	res.gatherUs = float64(systems[0].GatherLatency.Mean()) / 1e3
	res.scatterUs = float64(systems[0].ScatterLatency.Mean()) / 1e3

	// End-of-run checks. Shared memory is homed on rank 0.
	if res.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed inside the window", sp.name)
	}
	var sum uint64
	for i := 0; i < sp.accounts; i++ {
		sum += arrays[0].GetRaw(i)
	}
	if want := uint64(sp.accounts) * initialBalance; sum != want {
		return nil, fmt.Errorf("%s: money not conserved: %d != %d", sp.name, sum, want)
	}
	for r, s := range systems {
		if n := s.LockedAddrs(); n != 0 {
			return nil, fmt.Errorf("%s: rank %d: %d addresses still locked after the drain", sp.name, r, n)
		}
		if st := stats[r]; st.Commits != stats[0].Commits || st.Aborts != stats[0].Aborts || st.Ops != stats[0].Ops {
			return nil, fmt.Errorf("%s: rank %d merged stats disagree with rank 0", sp.name, r)
		}
	}
	if res.stats.Commits < res.stats.Ops {
		return nil, fmt.Errorf("%s: %d ops but only %d commits", sp.name, res.stats.Ops, res.stats.Commits)
	}
	return res, nil
}
