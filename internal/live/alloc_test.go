// Allocation regression tests for the live-backend hot paths: the pooled
// envelope/scratch machinery must make steady-state commits allocation-free
// (up to a small floor the Go runtime itself imposes — channel wakeups and
// scheduler bookkeeping on blocked receives).
//
// Methodology: workers run a warm-up batch first so every pool, scratch
// slice and map reaches its steady-state capacity, then rendezvous at a
// barrier; one worker snapshots runtime.MemStats, everyone runs a measured
// batch of transactions, and a second snapshot bounds Mallocs over the
// window. Keys are disjoint per worker, so no transaction ever aborts and
// the measured window is pure hot path: begin, read/write-lock RPCs,
// write-back, release burst, outbox flush.
package live_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/placement"
)

// measureLiveAllocs runs the given per-transaction body as a transaction of
// the given kind on every app core (disjoint key ranges) of a system
// configured by tune and returns the average heap allocations per committed
// transaction over the measured window, after warmup transactions per
// worker — and how many attempts (runs of the body) a transaction took on
// average there: 1 unless the body makes workers conflict.
func measureLiveAllocs(t *testing.T, tune func(*core.Config), kind core.TxKind, slotsPerWorker, warmup int, body func(tx *core.Tx, a core.TArray[uint64], base, n int)) (allocsPerTx, attemptsPerTx float64) {
	t.Helper()
	cfg := core.Config{
		Backend:    core.BackendLive,
		Seed:       7,
		TotalCores: 8,
		Policy:     cm.FairCM,
	}
	tune(&cfg)
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	workers := s.NumAppCores()
	accts := core.NewTArray(s, core.Uint64Codec(), workers*slotsPerWorker, 100)

	const measured = 600
	var m1, m2 runtime.MemStats
	var attempts atomic.Int64
	s.SpawnWorkers(func(rt *core.Runtime) {
		i := rt.AppIndex()
		base := i * slotsPerWorker
		mine := 0
		run := func(tx *core.Tx) {
			mine++
			body(tx, accts, base, slotsPerWorker)
		}
		for n := 0; n < warmup; n++ {
			rt.RunKind(kind, run)
		}
		rt.Barrier()
		if i == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m1)
		}
		rt.Barrier()
		mine = 0
		for n := 0; n < measured; n++ {
			rt.RunKind(kind, run)
		}
		attempts.Add(int64(mine))
		rt.Barrier()
		if i == 0 {
			runtime.ReadMemStats(&m2)
		}
	})
	st := s.RunToCompletion()
	wantCommits := uint64(workers * (warmup + measured))
	if st.Commits < wantCommits {
		t.Fatalf("commits %d < %d: every transaction must commit in the end", st.Commits, wantCommits)
	}
	// The window includes two barrier crossings; their handful of messages
	// is amortized over workers*measured transactions.
	txs := float64(workers * measured)
	return float64(m2.Mallocs-m1.Mallocs) / txs, float64(attempts.Load()) / txs
}

// transferBody is the visible-protocol commit shape: two reads, two writes,
// scatter write-lock acquisition at commit, gathered grants, release burst.
func transferBody(tx *core.Tx, a core.TArray[uint64], base, n int) {
	from, to := base, base+1
	f := a.Get(tx, from)
	v := a.Get(tx, to)
	a.Set(tx, from, f-1)
	a.Set(tx, to, v+1)
}

// readMostlyBody is the TL2 shape of interest: several invisible reads
// (version-table validation, no DTM round trip) and one write.
func readMostlyBody(tx *core.Tx, a core.TArray[uint64], base, n int) {
	var sum uint64
	for j := 0; j < n; j++ {
		sum += a.Get(tx, base+j)
	}
	a.Set(tx, base, sum)
}

// liveAllocBudget is the per-commit allocation bound the tests tolerate.
// Steady state measures ~0.01 allocs/tx (stray runtime bookkeeping only);
// the budget leaves headroom for scheduler noise without letting a real
// per-transaction allocation (1.0+/tx) slip through. The seed tree measured
// 10+ allocs per commit on these workloads before pooling.
const liveAllocBudget = 0.5

// liveWarmup is the per-worker warm-up that fills the message-plane pools.
const liveWarmup = 400

func TestLiveCommitAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	bothPlanes(t, func(t *testing.T, coalesce bool) {
		tune := func(c *core.Config) { c.Coalesce = coalesce }
		got, _ := measureLiveAllocs(t, tune, core.Normal, 2, liveWarmup, transferBody)
		t.Logf("visible commit: %.2f allocs/tx", got)
		if got > liveAllocBudget {
			t.Errorf("visible commit hot path allocates %.2f objects/tx, budget %.1f", got, liveAllocBudget)
		}
	})
}

func TestLiveTL2ReadAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	bothPlanes(t, func(t *testing.T, coalesce bool) {
		tune := func(c *core.Config) { c.Coalesce, c.Protocol = coalesce, core.ProtocolTL2 }
		got, _ := measureLiveAllocs(t, tune, core.Normal, 8, liveWarmup, readMostlyBody)
		t.Logf("TL2 read-mostly commit: %.2f allocs/tx", got)
		if got > liveAllocBudget {
			t.Errorf("TL2 read-mostly hot path allocates %.2f objects/tx, budget %.1f", got, liveAllocBudget)
		}
	})
}

// TestLiveAbortPathAllocationFree: four workers move units between the same
// two accounts, each giving the processor away after either read so the
// others get in. So attempts conflict and abort all the time — and an abort
// (signal, unwind, release burst, winner wait, retry) allocates nothing: the
// budget is per attempt, and a window that happened to see too few aborts
// to tell is run again rather than passed.
func TestLiveAbortPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	contended := func(tx *core.Tx, a core.TArray[uint64], base, n int) {
		f := a.Get(tx, 0)
		runtime.Gosched()
		v := a.Get(tx, 1)
		runtime.Gosched()
		a.Set(tx, 0, f-1)
		a.Set(tx, 1, v+1)
	}
	tune := func(c *core.Config) { c.TotalCores = 8 }
	for try := 0; try < 5; try++ {
		allocs, attempts := measureLiveAllocs(t, tune, core.Normal, 1, liveWarmup, contended)
		t.Logf("contended transfer: %.3f allocs/tx over %.2f attempts/tx", allocs, attempts)
		if attempts < 1.1 {
			continue // under one abort in ten transactions: one allocation each would hide in the budget
		}
		if perAttempt := allocs / attempts; perAttempt > 0.05 {
			t.Errorf("abort path allocates %.3f objects/attempt, budget 0.05", perAttempt)
		}
		return
	}
	t.Skip("the two workers never conflicted often enough to measure the abort path")
}

// TestLiveReadScanAllocationFree: a declared read-only scan of 1,024 objects,
// the Fig. 5(a) balance shape, under TL2 so that the scan's reads cost no
// lock traffic. The warm-up grows the read set's entries and index through
// every size a scan needs. From then on a scan allocates nothing.
func TestLiveReadScanAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	scan := func(tx *core.Tx, a core.TArray[uint64], base, n int) {
		for j := 0; j < n; j++ {
			a.Get(tx, base+j)
		}
	}
	tune := func(c *core.Config) { c.Protocol = core.ProtocolTL2 }
	got, _ := measureLiveAllocs(t, tune, core.ReadOnly, 1024, 20, scan)
	t.Logf("1,024-object read-only scan: %.3f allocs/tx", got)
	if got > 0.1 {
		t.Errorf("read-only scan allocates %.3f objects/tx, budget 0.1", got)
	}
}

// TestLiveElasticReadCommitAllocationFree: the elastic-read list update —
// a run of consecutive lock-free reads, each revalidating the two-entry
// window, then one write whose commit revalidates the window a last time at
// the persist instant. The traversal reads into the word arena and both
// window checks compare in place, so the whole path allocates nothing.
func TestLiveElasticReadCommitAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	listUpdate := func(tx *core.Tx, a core.TArray[uint64], base, n int) {
		var last uint64
		for j := 0; j < n; j++ {
			last = a.Get(tx, base+j)
		}
		a.Set(tx, base+n-1, last+1)
	}
	got, _ := measureLiveAllocs(t, func(*core.Config) {}, core.ElasticRead, 8, liveWarmup, listUpdate)
	t.Logf("elastic-read list update: %.3f allocs/tx", got)
	if got > 0.1 {
		t.Errorf("elastic-read update hot path allocates %.3f objects/tx, budget 0.1", got)
	}
}

// TestLivePlaceHierAllocationFree is the placement half of the same claim,
// on live-place-hier's shape: hier placement with a 1024-access epoch over
// keys spread so widely (2^20 words per worker, 4096 directory leaves each)
// that nearly every lock request splits a leaf and nearly every epoch
// merges it away again. The directory recycles those leaves and its epoch
// scratch, so once the leaf pool has reached its working size (a warm-up
// of a few dozen epochs) the transfer allocates no more than it does under
// the static hash.
func TestLivePlaceHierAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	const slots = 1 << 20
	var next [64]struct {
		n uint64
		_ [56]byte // workers bump their own counter only; keep them off each other's line
	}
	// A stride coprime to the slot count walks a worker's range one leaf or
	// more at a time without ever pairing an account with itself.
	spread := func(tx *core.Tx, a core.TArray[uint64], base, n int) {
		c := &next[base/n]
		from := base + int(c.n*7919%uint64(n))
		to := base + int((c.n*7919+524287)%uint64(n))
		c.n++
		f := a.Get(tx, from)
		v := a.Get(tx, to)
		a.Set(tx, from, f-1)
		a.Set(tx, to, v+1)
	}
	tune := func(c *core.Config) {
		c.Placement = placement.AdaptiveHier
		c.RepartitionEpoch = 1024
	}
	got, _ := measureLiveAllocs(t, tune, core.Normal, slots, 8000, spread)
	t.Logf("hier-placed transfer: %.3f allocs/tx", got)
	if got > 0.1 {
		t.Errorf("hier placement hot path allocates %.3f objects/tx, budget 0.1", got)
	}
}
