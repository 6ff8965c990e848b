package core

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/placement"
)

// skewedWriteWorker returns a worker whose transactions mostly touch a
// small hot set of keys spaced so that, under adaptive placement's
// interleaved initial assignment, every hot key lands on the same DTM node
// — guaranteed load imbalance that must trigger migrations.
func skewedWriteWorker(pool mem.Addr, nodes, words, ops int) func(rt *Runtime) {
	return func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < ops; i++ {
			rt.Run(func(tx *Tx) {
				var a mem.Addr
				if r.Intn(100) < 80 {
					a = pool + mem.Addr(nodes*r.Intn(8)) // hot: one initial owner
				} else {
					a = pool + mem.Addr(r.Intn(words))
				}
				tx.Write(a, tx.Read(a)+1)
				b := pool + mem.Addr(r.Intn(words))
				tx.Write(b, tx.Read(b)+1)
			})
			rt.AddOps(1)
		}
	}
}

// TestAdaptiveMigrationNoLockLeak drives a skewed workload with a short
// repartition epoch so stripes migrate while transactions hold locks on
// them, then verifies the ISSUE's core invariant: after the run drains, no
// lock survives anywhere — handoffs never orphaned a lock or lost a
// release — and the linearizability audit stays green.
func TestAdaptiveMigrationNoLockLeak(t *testing.T) {
	cfg := Config{
		Platform:         noc.SCC(0),
		Seed:             9,
		TotalCores:       8,
		ServiceCores:     4,
		Policy:           cm.FairCM,
		Placement:        placement.AdaptiveHier,
		RepartitionEpoch: 64,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAudit()
	pool := s.Mem.Alloc(128, 0)
	s.SpawnWorkers(skewedWriteWorker(pool, 4, 128, 40))
	st := s.RunToCompletion()

	if st.Ops != 4*40 {
		t.Fatalf("ops = %d, want 160 (run did not drain)", st.Ops)
	}
	if st.Migrations == 0 || st.Handoffs == 0 {
		t.Fatalf("migrations=%d handoffs=%d, want both > 0 (skew must trigger repartitioning)",
			st.Migrations, st.Handoffs)
	}
	if st.RepartitionRounds == 0 {
		t.Fatal("migrations happened but no repartition round was counted")
	}
	if err := s.CheckAudit(nil); err != nil {
		t.Fatal(err)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d addresses still locked after drained run with migrations", leaked)
	}
	if err := s.Placement().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveMigrationMultitask is the same drain check under Multitask
// deployment, where each core gathers its own lock responses while serving
// its co-located DTM node — including the node's stripe handoffs.
func TestAdaptiveMigrationMultitask(t *testing.T) {
	cfg := Config{
		Platform:         noc.SCC(0),
		Seed:             4,
		TotalCores:       4,
		Deployment:       Multitask,
		Policy:           cm.FairCM,
		Placement:        placement.AdaptiveHier,
		RepartitionEpoch: 64,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAudit()
	pool := s.Mem.Alloc(64, 0)
	s.SpawnWorkers(skewedWriteWorker(pool, 4, 64, 30))
	st := s.RunToCompletion()
	if st.Ops != 4*30 {
		t.Fatalf("ops = %d, want 120 (run did not drain)", st.Ops)
	}
	if st.Migrations == 0 {
		t.Fatal("no migrations under skew")
	}
	if err := s.CheckAudit(nil); err != nil {
		t.Fatal(err)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked", leaked)
	}
}

// TestAdaptiveDeterminism verifies that same-seed runs with adaptive
// placement and live migrations are bit-identical: same kernel event trace,
// same statistics.
func TestAdaptiveDeterminism(t *testing.T) {
	for _, dep := range []Deployment{Dedicated, Multitask} {
		t.Run(dep.String(), func(t *testing.T) {
			run := func() (uint64, Stats) {
				cfg := Config{
					Platform:         noc.SCC(0),
					Seed:             5,
					TotalCores:       8,
					Deployment:       dep,
					Policy:           cm.FairCM,
					Placement:        placement.AdaptiveHier,
					RepartitionEpoch: 64,
				}
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.K.EnableTraceHash()
				pool := s.Mem.Alloc(128, 0)
				nodes := s.NumServiceCores()
				s.SpawnWorkers(skewedWriteWorker(pool, nodes, 128, 20))
				st := s.RunToCompletion()
				return s.K.TraceHash(), *st
			}
			h1, st1 := run()
			h2, st2 := run()
			if h1 != h2 {
				t.Fatalf("trace hashes differ: %#x != %#x", h1, h2)
			}
			if st1.Commits != st2.Commits || st1.Msgs != st2.Msgs ||
				st1.Migrations != st2.Migrations || st1.StaleNacks != st2.StaleNacks {
				t.Fatalf("stats differ across identical runs:\n%+v\n%+v", st1, st2)
			}
			if st1.Commits == 0 {
				t.Fatal("no commits")
			}
			if st1.Migrations == 0 {
				t.Fatal("determinism check exercised no migrations")
			}
		})
	}
}

// TestPlacementStaleNackRerouting freezes one stripe by hand, then runs a
// transaction touching a key in it. The owning node completes the (empty)
// handoff on the request's arrival and NACKs it stale; the requester
// re-resolves to the new owner and commits. Exactly the remap protocol's
// happy path, observed end to end.
func TestPlacementStaleNackRerouting(t *testing.T) {
	cfg := Config{
		Platform:         noc.SCC(0),
		Seed:             7,
		TotalCores:       4,
		ServiceCores:     2,
		Policy:           cm.FairCM,
		Placement:        placement.AdaptiveHier,
		RepartitionEpoch: 1 << 30, // no automatic rounds
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Mem.Alloc(8, 0)
	dir := s.Placement()
	stripe := dir.StripeOf(addr)
	from := dir.Owner(addr)
	to := (from + 1) % s.NumServiceCores()
	if !dir.InitiateMove(stripe, to) {
		t.Fatal("InitiateMove refused")
	}

	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) {
			tx.Write(addr, tx.Read(addr)+41)
		})
		rt.AddOps(1)
	})
	st := s.RunToCompletion()

	if st.Commits != 1 {
		t.Fatalf("commits = %d, want 1", st.Commits)
	}
	if st.StaleNacks == 0 {
		t.Fatal("request to the frozen stripe was not NACKed")
	}
	if st.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", st.Handoffs)
	}
	if got := dir.Owner(addr); got != to {
		t.Fatalf("key owned by node %d after handoff, want %d", got, to)
	}
	if got := s.Mem.ReadRaw(addr); got != 41 {
		t.Fatalf("mem[addr] = %d, want 41", got)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked", leaked)
	}
}

// TestPlacementKindsAllDrain smoke-runs every policy on the same workload
// and checks clean drains and identical committed effects per policy.
func TestPlacementKindsAllDrain(t *testing.T) {
	for _, k := range placement.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := Config{
				Platform:     noc.SCC(0),
				Seed:         11,
				TotalCores:   6,
				ServiceCores: 3,
				Policy:       cm.FairCM,
				Placement:    k,
			}
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.EnableAudit()
			pool := s.Mem.Alloc(64, 0)
			s.SpawnWorkers(scatterWriteWorker(pool, 64, 4, 15))
			st := s.RunToCompletion()
			if st.Ops != 3*15 {
				t.Fatalf("ops = %d, want 45", st.Ops)
			}
			if err := s.CheckAudit(nil); err != nil {
				t.Fatal(err)
			}
			if leaked := s.LockedAddrs(); leaked != 0 {
				t.Fatalf("%d locks leaked", leaked)
			}
			if got := len(st.NodeLoad); got != 3 {
				t.Fatalf("NodeLoad has %d entries, want 3", got)
			}
			var total uint64
			for _, v := range st.NodeLoad {
				total += v
			}
			if total == 0 {
				t.Fatal("NodeLoad recorded no served requests")
			}
			if imb := st.LoadImbalance(); imb < 1 {
				t.Fatalf("LoadImbalance = %v, want >= 1", imb)
			}
		})
	}
}
