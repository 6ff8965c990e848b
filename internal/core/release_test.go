package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// TestReleaseBurstAfterPoolDrain: every GC empties the message pools, so the
// release burst that follows one draws each relLocks fresh. A 1,024-object
// read scan over 24 DTM nodes must still draft its burst with at most two
// allocations per message — the message and its key slice, sized once from
// the node's key count — not one per doubling of the slice.
func TestReleaseBurstAfterPoolDrain(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on otherwise allocation-free paths")
	}
	s := testSystem(t, func(c *Config) { c.TotalCores = 48 })
	const objects = 1024
	base := s.Mem.Alloc(objects, 0)
	var before, after runtime.MemStats
	measuring, msgs := false, 0
	releaseSent = func(int, *relLocks) {
		if measuring {
			// Every draft is built before the first message leaves.
			runtime.ReadMemStats(&after)
			measuring = false
		}
		msgs++
	}
	t.Cleanup(func() { releaseSent = nil })
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		for round := 0; round < 2; round++ { // the first grows the runtime's own scratch
			rt.RunKind(ReadOnly, func(tx *Tx) {
				for i := 0; i < objects; i++ {
					tx.Read(base + mem.Addr(i))
				}
				if round == 1 {
					runtime.GC()
					runtime.GC() // the first GC moves pooled objects to the victim cache, the second frees them
					// A pool rebuilds its per-P cache at its first use after a
					// GC, once per cycle and not per message: pay that here.
					putRelLocks(getRelLocks())
					msgs = 0
					runtime.ReadMemStats(&before)
					measuring = true
				}
			})
		}
	})
	s.RunToCompletion()
	if msgs != len(s.nodes) {
		t.Fatalf("the scan's release burst sent %d messages, want one per DTM node (%d)", msgs, len(s.nodes))
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("release burst after a pool drain: %d allocations for %d messages", allocs, msgs)
	if allocs > uint64(2*msgs) {
		t.Errorf("drafting %d release messages allocated %d objects, want <= 2 per message", msgs, allocs)
	}
}

// TestNoLockLeaksAcrossBarrierRounds: rounds of one transaction then one
// barrier, in every deployment, acquisition mode and protocol, and under
// elastic-early and irrevocable transactions, must quiesce with no lock left
// in any DTM table. Each barrier is entered with the last transaction's
// release burst behind it, so a release that a barrier strands shows here.
func TestNoLockLeaksAcrossBarrierRounds(t *testing.T) {
	const words = 16
	run := func(t *testing.T, cfg Config, txn func(rt *Runtime, base mem.Addr, i int)) {
		cfg.Platform, cfg.Seed, cfg.TotalCores, cfg.Policy = noc.SCC(0), 19, 8, cm.FairCM
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := s.Mem.Alloc(words, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			for i := 0; i < 10; i++ {
				txn(rt, base, i)
				rt.Barrier()
			}
		})
		if st := s.RunToCompletion(); st.Commits == 0 {
			t.Fatal("nothing committed")
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			t.Errorf("%d locks leaked", leaked)
		}
	}
	// scatter reads two words and writes four.
	scatter := func(kind TxKind) func(*Runtime, mem.Addr, int) {
		return func(rt *Runtime, base mem.Addr, i int) {
			r := rt.Rand()
			rt.RunKind(kind, func(tx *Tx) {
				a := base + mem.Addr(r.Intn(words))
				v := tx.Read(a) + tx.Read(base+mem.Addr(r.Intn(words)))
				if kind == ElasticEarly {
					tx.EarlyRelease(a)
				}
				for k := 0; k < 4; k++ {
					tx.Write(base+mem.Addr(r.Intn(words)), v+uint64(i))
				}
			})
		}
	}
	for _, dep := range []Deployment{Dedicated, Multitask} {
		for _, acq := range []AcquireMode{Lazy, Eager} {
			for _, proto := range []Protocol{ProtocolVisible, ProtocolTL2} {
				cfg := Config{Deployment: dep, Acquire: acq, Protocol: proto}
				t.Run(fmt.Sprintf("%v/%v/%v", dep, acq, proto), func(t *testing.T) { run(t, cfg, scatter(Normal)) })
			}
		}
	}
	for _, acq := range []AcquireMode{Lazy, Eager} {
		t.Run(fmt.Sprintf("elastic-early/%v", acq), func(t *testing.T) {
			run(t, Config{Acquire: acq}, scatter(ElasticEarly))
		})
	}
	t.Run("irrevocable", func(t *testing.T) {
		run(t, Config{}, func(rt *Runtime, base mem.Addr, i int) {
			if rt.AppIndex() != 0 {
				scatter(Normal)(rt, base, i)
				return
			}
			rt.RunIrrevocable(func(ir *Irrevocable) {
				ir.Write(base+mem.Addr(i%words), ir.Read(base)+1)
			})
		})
	})
}
