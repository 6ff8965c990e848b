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

// blindWriteWorker returns a worker running ops transactions that each
// write `writes` objects drawn from a pool without reading them first, so no
// read takes a write lock ahead of the commit (Tx.forUpdate).
func blindWriteWorker(pool mem.Addr, words, writes, ops int) func(rt *Runtime) {
	return func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < ops; i++ {
			rt.Run(func(tx *Tx) {
				for j := 0; j < writes; j++ {
					tx.Write(pool+mem.Addr(r.Intn(words)), uint64(i))
				}
			})
			rt.AddOps(1)
		}
	}
}

// rmwWorker returns a worker running ops read-modify-write transactions of
// `writes` distinct objects of a pool, the same number every time: from its
// third commit on, every read takes its write lock (Tx.forUpdate).
func rmwWorker(pool mem.Addr, words, writes, ops int) func(rt *Runtime) {
	return func(rt *Runtime) {
		for i := 0; i < ops; i++ {
			rt.Run(func(tx *Tx) {
				for j := 0; j < writes; j++ {
					a := pool + mem.Addr((i*writes+j)%words)
					tx.Write(a, tx.Read(a)+1)
				}
			})
			rt.AddOps(1)
		}
	}
}

// TestScatterGatherReducesCommitRoundTrips pins the scatter-gather
// invariant as an absolute count: a commit attempt with a non-empty write
// set that its reads did not lock awaits exactly one round-trip phase
// however many DTM nodes its write set spans. Every worker writes its own
// slice of the pool, so no attempt aborts and attempts equal commits; the
// write-lock request count shows the commits really did span several nodes.
// Blind writes take every write lock at the commit; a read-modify-write
// body pays its two warm-up commits' round trips and none after them.
func TestScatterGatherReducesCommitRoundTrips(t *testing.T) {
	const workers, writes, ops, slice = 4, 8, 25, 64
	for _, row := range []struct {
		name   string
		worker func(pool mem.Addr, words, writes, ops int) func(rt *Runtime)
		rts    uint64 // commit round trips per worker
		reads  uint64 // reads for update per worker
	}{{"blind", blindWriteWorker, ops, 0}, {"read-modify-write", rmwWorker, 2, (ops - 2) * writes}} {
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
				row.worker(pool+mem.Addr(rt.AppIndex()*slice), slice, writes, ops)(rt)
			})
			st := s.RunToCompletion()
			if err := s.CheckAudit(nil); err != nil {
				t.Fatalf("%s, %d nodes: %v", row.name, svc, err)
			}
			if leaked := s.LockedAddrs(); leaked != 0 {
				t.Fatalf("%s, %d nodes: %d locks leaked", row.name, svc, leaked)
			}
			if st.Commits != workers*ops || st.Aborts != 0 {
				t.Fatalf("%s, %d nodes: commits=%d aborts=%d, want %d/0 (disjoint write sets)", row.name, svc, st.Commits, st.Aborts, workers*ops)
			}
			if st.CommitRoundTrips != workers*row.rts {
				t.Errorf("%s, %d nodes: CommitRoundTrips = %d for %d commit attempts, want %d a worker", row.name, svc, st.CommitRoundTrips, st.Commits, row.rts)
			}
			if st.UpdateReads != workers*row.reads || st.UpdateReadsUnwritten != 0 {
				t.Errorf("%s, %d nodes: %d reads for update, %d unwritten; want %d a worker, none", row.name, svc, st.UpdateReads, st.UpdateReadsUnwritten, row.reads)
			}
			if batches := st.WriteLockReqs - st.UpdateReads; batches < 2*st.CommitRoundTrips {
				t.Errorf("%s, %d nodes: %d write-lock batches for %d commit round trips: write sets did not span nodes", row.name, svc, batches, st.CommitRoundTrips)
			}
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
