package core

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// findTwoNodeAddrs scans pool for two addresses owned by different DTM
// nodes, returning them with the second one's responsible node.
func findTwoNodeAddrs(t *testing.T, s *System, pool mem.Addr, words int) (a1, a2 mem.Addr, node2 int) {
	t.Helper()
	a1 = pool
	n1 := s.nodeFor(a1)
	for i := 1; i < words; i++ {
		a := pool + mem.Addr(i)
		if n := s.nodeFor(a); n != n1 {
			return a1, a, n
		}
	}
	t.Fatal("no address pair spanning two DTM nodes in pool")
	return 0, 0, 0
}

// scatterWriteWorker returns a worker running ops read-modify-write
// transactions of `writes` objects drawn from a pool — write sets that
// almost always span several DTM nodes.
func scatterWriteWorker(pool mem.Addr, words, writes, ops int) func(rt *Runtime) {
	return func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < ops; i++ {
			rt.Run(func(tx *Tx) {
				for j := 0; j < writes; j++ {
					a := pool + mem.Addr(r.Intn(words))
					tx.Write(a, tx.Read(a)+1)
				}
			})
			rt.AddOps(1)
		}
	}
}

// TestScatterGatherReducesCommitRoundTrips pins the scatter-gather
// invariant as an absolute count: a commit attempt with a non-empty write
// set awaits exactly one round-trip phase however many DTM nodes its write
// set spans. Every worker writes its own slice of the pool, so no attempt
// aborts and attempts equal commits; the write-lock request count shows the
// commits really did span several nodes.
func TestScatterGatherReducesCommitRoundTrips(t *testing.T) {
	const workers, writes, ops, slice = 4, 8, 25, 64
	for _, svc := range []int{2, 4, 8, 16} {
		cfg := Config{
			Platform:     noc.SCC(0),
			Seed:         11,
			TotalCores:   workers + svc,
			ServiceCores: svc,
			Policy:       cm.FairCM,
		}
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableAudit()
		pool := s.Mem.Alloc(workers*slice, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			scatterWriteWorker(pool+mem.Addr(rt.AppIndex()*slice), slice, writes, ops)(rt)
		})
		st := s.RunToCompletion()
		if err := s.CheckAudit(nil); err != nil {
			t.Fatalf("%d nodes: %v", svc, err)
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			t.Fatalf("%d nodes: %d locks leaked", svc, leaked)
		}
		if st.Commits != workers*ops || st.Aborts != 0 {
			t.Fatalf("%d nodes: commits=%d aborts=%d, want %d/0 (disjoint write sets)", svc, st.Commits, st.Aborts, workers*ops)
		}
		if st.CommitRoundTrips != st.Commits {
			t.Errorf("%d nodes: CommitRoundTrips = %d for %d commit attempts, want exactly one each", svc, st.CommitRoundTrips, st.Commits)
		}
		if st.WriteLockReqs < 2*st.Commits {
			t.Errorf("%d nodes: %d write-lock batches for %d commits: write sets did not span nodes", svc, st.WriteLockReqs, st.Commits)
		}
	}
}

// TestScatterGatherDeterminism verifies that same-seed runs of the
// scatter-gather commit path are bit-identical: same kernel event trace,
// same statistics, under both deployments.
func TestScatterGatherDeterminism(t *testing.T) {
	for _, dep := range []Deployment{Dedicated, Multitask} {
		t.Run(dep.String(), func(t *testing.T) {
			run := func() (uint64, Stats) {
				cfg := Config{
					Platform:   noc.SCC(0),
					Seed:       5,
					TotalCores: 8,
					Deployment: dep,
					Policy:     cm.FairCM,
				}
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.K.EnableTraceHash()
				pool := s.Mem.Alloc(128, 0)
				s.SpawnWorkers(scatterWriteWorker(pool, 128, 4, 15))
				st := s.RunToCompletion()
				return s.K.TraceHash(), *st
			}
			h1, st1 := run()
			h2, st2 := run()
			if h1 != h2 {
				t.Fatalf("trace hashes differ: %#x != %#x", h1, h2)
			}
			if st1.Commits != st2.Commits || st1.Aborts != st2.Aborts ||
				st1.Msgs != st2.Msgs || st1.CommitRoundTrips != st2.CommitRoundTrips {
				t.Fatalf("stats differ across identical runs:\n%+v\n%+v", st1, st2)
			}
			if st1.Commits == 0 {
				t.Fatal("no commits")
			}
		})
	}
}

// TestScatterMultitaskServesWhileGathering runs multi-node scatter commits
// under Multitask deployment, where every core both gathers its own lock
// responses and serves its co-located DTM node. If gathering ever stopped
// serving requests, two cores awaiting locks from each other's nodes would
// deadlock and the finite-ops run would never drain.
func TestScatterMultitaskServesWhileGathering(t *testing.T) {
	cfg := Config{
		Platform:   noc.SCC(0),
		Seed:       3,
		TotalCores: 4,
		Deployment: Multitask,
		Policy:     cm.FairCM,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAudit()
	pool := s.Mem.Alloc(64, 0)
	s.SpawnWorkers(scatterWriteWorker(pool, 64, 4, 20))
	st := s.RunToCompletion()
	if st.Ops != 4*20 {
		t.Fatalf("ops = %d, want 80 (run did not drain)", st.Ops)
	}
	if err := s.CheckAudit(nil); err != nil {
		t.Fatal(err)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked", leaked)
	}
}
