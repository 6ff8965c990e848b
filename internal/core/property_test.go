package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// TestSingleCoreSequentialEquivalence drives one application core with a
// random transactional op sequence and checks that the final shared-memory
// state exactly matches a plain in-memory model: with no concurrency, TM2C
// must behave like sequential code.
func TestSingleCoreSequentialEquivalence(t *testing.T) {
	type op struct {
		Write bool
		Addr  uint8
		Val   uint8
		Span  uint8 // ops per transaction
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seed uint64, ops []op) bool {
		s, err := NewSystem(Config{
			Platform: noc.SCC(0), Seed: seed, TotalCores: 4, Policy: cm.FairCM,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := s.Mem.Alloc(32, 0)
		model := make([]uint64, 32)
		s.SpawnWorkers(func(rt *Runtime) {
			if rt.AppIndex() != 0 {
				return
			}
			i := 0
			for i < len(ops) {
				// Group a few ops into one transaction.
				span := int(ops[i].Span%4) + 1
				end := i + span
				if end > len(ops) {
					end = len(ops)
				}
				group := ops[i:end]
				i = end
				rt.Run(func(tx *Tx) {
					for _, o := range group {
						a := base + mem.Addr(o.Addr%32)
						if o.Write {
							tx.Write(a, uint64(o.Val))
						} else {
							_ = tx.Read(a)
						}
					}
				})
				for _, o := range group {
					if o.Write {
						model[o.Addr%32] = uint64(o.Val)
					}
				}
			}
		})
		s.RunToCompletion()
		for i, want := range model {
			if got := s.Mem.ReadRaw(base + mem.Addr(i)); got != want {
				t.Logf("word %d = %d, want %d", i, got, want)
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCounterExactness: under every starvation-free CM and every
// acquisition mode, concurrent increments of disjoint and shared counters
// must never lose an update.
func TestConcurrentCounterExactness(t *testing.T) {
	type combo struct {
		pol cm.Policy
		acq AcquireMode
	}
	combos := []combo{
		{cm.Wholly, Lazy},
		{cm.Wholly, Eager},
		{cm.FairCM, Lazy},
		{cm.FairCM, Eager},
		{cm.OffsetGreedy, Lazy},
		{cm.BackoffRetry, Lazy},
	}
	for _, c := range combos {
		c := c
		t.Run(c.pol.String()+"/"+c.acq.String(), func(t *testing.T) {
			s, err := NewSystem(Config{
				Platform: noc.SCC(0), Seed: 5, TotalCores: 8,
				Policy: c.pol, Acquire: c.acq,
			})
			if err != nil {
				t.Fatal(err)
			}
			shared := s.Mem.Alloc(1, 0)
			private := s.Mem.Alloc(8, 1)
			const perCore = 25
			s.SpawnWorkers(func(rt *Runtime) {
				mine := private + mem.Addr(rt.AppIndex())
				for i := 0; i < perCore; i++ {
					rt.Run(func(tx *Tx) {
						tx.Write(shared, tx.Read(shared)+1)
						tx.Write(mine, tx.Read(mine)+1)
					})
				}
			})
			st := s.RunToCompletion()
			wantShared := uint64(perCore * s.NumAppCores())
			if got := s.Mem.ReadRaw(shared); got != wantShared {
				t.Errorf("shared counter = %d, want %d", got, wantShared)
			}
			for i := 0; i < s.NumAppCores(); i++ {
				if got := s.Mem.ReadRaw(private + mem.Addr(i)); got != perCore {
					t.Errorf("private counter %d = %d, want %d", i, got, perCore)
				}
			}
			if st.Commits != wantShared {
				t.Errorf("commits = %d, want %d", st.Commits, wantShared)
			}
		})
	}
}

// TestLifespanHistogramMatchesCommits: every committed transaction records
// exactly one lifespan, and under a starvation-free CM the longest lifespan
// stays within the run (nothing starved to the end).
func TestLifespanHistogramMatchesCommits(t *testing.T) {
	s := testSystem(t, func(c *Config) { c.Policy = cm.FairCM })
	hot := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		for i := 0; i < 20; i++ {
			rt.Run(func(tx *Tx) { tx.Write(hot, tx.Read(hot)+1) })
		}
	})
	st := s.RunToCompletion()
	if s.TxLifespans.Count() != st.Commits {
		t.Fatalf("lifespans recorded %d != commits %d", s.TxLifespans.Count(), st.Commits)
	}
	if s.TxLifespans.Max() > st.Duration {
		t.Fatalf("a lifespan (%v) exceeds the run (%v)", s.TxLifespans.Max(), st.Duration)
	}
	if s.TxLifespans.Quantile(0.5) <= 0 {
		t.Fatal("degenerate lifespan distribution")
	}
}

// TestDeterminismAcrossConfigs: the full system must be reproducible for
// every deployment/CM combination.
func TestDeterminismAcrossConfigs(t *testing.T) {
	run := func(dep Deployment, pol cm.Policy) (uint64, uint64) {
		s, err := NewSystem(Config{
			Platform: noc.SCC(0), Seed: 99, TotalCores: 6,
			Deployment: dep, Policy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := s.Mem.Alloc(4, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 20; i++ {
				a := base + mem.Addr(r.Intn(4))
				rt.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
			}
		})
		st := s.RunToCompletion()
		return st.Aborts, uint64(st.Duration)
	}
	// NoCM is deliberately excluded: four cores incrementing four hot words
	// without contention management is the paper's WAR livelock (§5.3) and
	// a finite-ops run would never terminate.
	for _, dep := range []Deployment{Dedicated, Multitask} {
		for _, pol := range []cm.Policy{cm.BackoffRetry, cm.Wholly, cm.FairCM} {
			a1, d1 := run(dep, pol)
			a2, d2 := run(dep, pol)
			if a1 != a2 || d1 != d2 {
				t.Errorf("%v/%v nondeterministic: (%d,%d) vs (%d,%d)", dep, pol, a1, d1, a2, d2)
			}
		}
	}
}
