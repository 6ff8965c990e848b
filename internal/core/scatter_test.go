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
	n1 := s.nodeFor(s.lockKey(a1))
	for i := 1; i < words; i++ {
		a := pool + mem.Addr(i)
		if n := s.nodeFor(s.lockKey(a)); n != n1 {
			return a1, a, n
		}
	}
	t.Fatal("no address pair spanning two DTM nodes in pool")
	return 0, 0, 0
}

// TestScatterRollbackOnPartialGrant injects a conflict at the second of two
// DTM nodes touched by a lazy commit and verifies the two-phase rollback:
// the write locks the first node already granted must be released before the
// abort unwinds, leaving no stale entries in any lock table.
func TestScatterRollbackOnPartialGrant(t *testing.T) {
	cfg := Config{
		Platform:     noc.SCC(0),
		Seed:         7,
		TotalCores:   4,
		ServiceCores: 2,
		Policy:       cm.NoCM, // rejects the requester without touching the enemy
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := s.Mem.Alloc(64, 0)
	a1, a2, node2 := findTwoNodeAddrs(t, s, pool, 64)

	// A foreign write lock on a2's stripe makes node2 reject the
	// commit's second batch with WAW; node1 has already granted the
	// first batch by then. The enemy core never runs a transaction,
	// and NoCM aborts the requester without consulting the enemy's
	// status register, so the injected lock stays put.
	enemyCore, enemyTx := 0, uint64(99)
	key2 := s.lockKey(a2)
	s.nodes[node2].table.SetWriter(key2, cm.Meta{Core: enemyCore, TxID: enemyTx})

	attempts := 0
	var used int
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 1 {
			return
		}
		used = rt.Run(func(tx *Tx) {
			attempts++
			tx.Write(a1, 11)
			if attempts == 1 {
				tx.Write(a2, 22) // rejected at node2 on the first try
			}
		})
	})
	st := s.RunToCompletion()

	if used != 2 {
		t.Fatalf("transaction used %d attempts, want 2 (one scatter rollback)", used)
	}
	if st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d, want 1/1", st.Commits, st.Aborts)
	}
	if st.AbortsByKind[cm.WAW] != 1 {
		t.Fatalf("WAW aborts = %d, want 1", st.AbortsByKind[cm.WAW])
	}
	if got := s.Mem.ReadRaw(a1); got != 11 {
		t.Fatalf("mem[a1] = %d, want 11 (retry committed)", got)
	}
	if got := s.Mem.ReadRaw(a2); got != 0 {
		t.Fatalf("mem[a2] = %d, want 0 (first attempt rolled back)", got)
	}
	// The only surviving lock is the injected one: the batch node1
	// granted on the failed attempt was released by the rollback,
	// and the retry's locks by its commit.
	if n := s.LockedAddrs(); n != 1 {
		t.Fatalf("%d addresses locked after the run, want only the injected lock", n)
	}
	if !s.nodes[node2].table.ReleaseWrite(key2, enemyCore, enemyTx) {
		t.Fatal("injected lock vanished: the rollback released a foreign lock")
	}
	if n := s.LockedAddrs(); n != 0 {
		t.Fatalf("%d stale lock entries survive the rollback", n)
	}

	// Counter consistency: the first attempt sends two batches, the
	// retry one; both attempts abort or commit through exactly one
	// release burst to node1.
	if st.WriteLockReqs != 3 {
		t.Errorf("WriteLockReqs = %d, want 3", st.WriteLockReqs)
	}
	if st.ReleaseMsgs != 2 {
		t.Errorf("ReleaseMsgs = %d, want 2", st.ReleaseMsgs)
	}
	if st.CommitRoundTrips != 2 { // one gather per attempt
		t.Errorf("CommitRoundTrips = %d, want 2", st.CommitRoundTrips)
	}
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
