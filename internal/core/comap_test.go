package core

import (
	"fmt"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/placement"
)

// comapFixture is one clustered workload of the co-mapping tests.
type comapFixture struct {
	draws int // nested uniform draws picking a word: more is a steeper head
	epoch int // Config.RepartitionEpoch
	ops   int // transactions per worker
	// untilAwake stops a worker at the first transaction boundary where the
	// directory holds heat stripes (its heat plane is awake), ops being a cap.
	untilAwake bool
}

var (
	// comapMild is the fixture these tests were written on, unchanged. The
	// four partition heads all start on DTM node 0, which carries 1.24x the
	// mean load (median over the run's 39 windows; 1.10-1.46 per window): at
	// the 1.25 ImbalanceFactor, not over it, and a 256-access epoch over 8
	// nodes cannot tell that from noise (node 0 would have to reach 1.5x).
	// Before PR 21 the directory migrated here anyway — its per-stripe sums
	// drop every stripe touched once per window, which read as 1.13-1.47x —
	// 42 times, and hier's remote share fell to 0.695 against the retired
	// flat policy's 0.746. PR 21's gate sleeps through this run: a stated
	// loss, pinned below.
	comapMild = comapFixture{draws: 2, epoch: 256, ops: 120}
	// comapSteep is the same structure with an imbalance the gate can see:
	// ~1.4x on node 0, in 1024-access epochs.
	comapSteep = comapFixture{draws: 3, epoch: 1024, ops: 480}
)

// clusteredWorker returns a worker whose transactions touch only its own
// cluster's partition of the pool, with Zipf-ish skew inside the partition.
// Each mesh quadrant's app cores hammer a distinct contiguous range, so a
// stripe's dominant accessor cluster is unambiguous — the signal the hier
// policy's co-mapping needs, and exactly the structure of a partitioned
// workload (per-region shards, per-tenant tables) on a real machine.
func clusteredWorker(pl *noc.Platform, pool mem.Addr, partWords int, fx comapFixture) func(rt *Runtime) {
	return func(rt *Runtime) {
		part := pl.ClusterOf(rt.Core())
		base := pool + mem.Addr(part*partWords)
		r := rt.Rand()
		for i := 0; i < fx.ops; i++ {
			rt.Run(func(tx *Tx) {
				off := r.Intn(partWords)
				for d := 1; d < fx.draws; d++ {
					off = r.Intn(1 + off)
				}
				a := base + mem.Addr(off)
				tx.Write(a, tx.Read(a)+1)
			})
			rt.AddOps(1)
			if fx.untilAwake && rt.s.dir.HeatStripes() > 0 {
				return
			}
		}
	}
}

// comapSeed is the seed of every co-mapping run but the per-seed claims.
const comapSeed = 13

// runComap runs the clustered workload under one placement kind and seed and
// returns the stats and the directory.
func runComap(t *testing.T, kind placement.Kind, fx comapFixture, seed uint64) (*Stats, *placement.Directory) {
	t.Helper()
	cfg := Config{
		Platform:         noc.SCC(0),
		Seed:             seed,
		TotalCores:       48,
		ServiceCores:     8,
		Policy:           cm.FairCM,
		Placement:        kind,
		RepartitionEpoch: fx.epoch,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const partWords = 256
	pool := s.Mem.Alloc(partWords*4, 0)
	s.SpawnWorkers(clusteredWorker(s.Platform(), pool, partWords, fx))
	st := s.RunToCompletion()
	if st.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Fatalf("%d locks leaked", leaked)
	}
	if err := s.Placement().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return st, s.Placement()
}

// interleavedStart runs fx with an epoch no run reaches: the directory never
// evaluates, so every stripe stays on its interleaved default owner — the
// start every migration departs from — while the accesses are still counted.
func interleavedStart(t *testing.T, fx comapFixture, seed uint64) *Stats {
	t.Helper()
	fx.epoch = 1 << 30
	st, _ := runComap(t, placement.AdaptiveHier, fx, seed)
	if st.Migrations != 0 || st.PlacementEpochs != 0 {
		t.Fatalf("interleaved start: %d migrations over %d epochs, want none", st.Migrations, st.PlacementEpochs)
	}
	return st
}

// comapTail is how many of the hier run's last epoch windows claim (a) of
// TestCoMappingConvergesOnStableSkew averages.
const comapTail = 8

// TestCoMappingConvergesOnStableSkew is the deterministic end-to-end
// co-mapping test: on a stable clustered Zipf workload, for each of seeds
// 1-8, the hier policy's migrations must pull stripes toward their accessor
// clusters, so (a) its mean remote-access ratio over the last comapTail
// epoch windows and (b) its whole run's remote ratio are both below the
// interleaved start's on the identical workload and seed — the
// Stats.RemoteAccessRatio counter proving the win. Comparing one window
// with another cannot tell co-mapping from noise: with every migration
// switched off, such a comparison still held on 11 of seeds 1-20.
func TestCoMappingConvergesOnStableSkew(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			hierStats, hierDir := runComap(t, placement.AdaptiveHier, comapSteep, seed)
			startStats := interleavedStart(t, comapSteep, seed)

			if hierStats.Migrations == 0 {
				t.Fatal("hier policy initiated no migrations under clustered skew")
			}
			sr := startStats.RemoteAccessRatio()
			hist := hierDir.RemoteHistory()
			if len(hist) < comapTail {
				t.Fatalf("only %d epoch windows recorded, want >= %d", len(hist), comapTail)
			}
			tail := 0.0
			for _, r := range hist[len(hist)-comapTail:] {
				tail += r
			}
			if tail /= comapTail; tail >= sr {
				t.Errorf("hier remote share over the last %d windows %.3f not below the interleaved start's %.3f", comapTail, tail, sr)
			}
			hr := hierStats.RemoteAccessRatio()
			if hr == 0 || sr == 0 {
				t.Fatalf("remote ratios not tracked (hier %.3f, interleaved start %.3f)", hr, sr)
			}
			if hr >= sr {
				t.Errorf("co-mapping remote ratio %.3f not below the interleaved start's %.3f", hr, sr)
			}
		})
	}
}

// TestCoMappingSleepsThroughMildSkew pins what PR 21 gave up (see comapMild):
// on the fixture the test above was written on, node 0 never clears the
// noise margin and the heat plane never wakes, so hier stays on the
// interleaved start — no migration, the start's remote share. If the gate
// ever learns to act on a persistent 1.24x, this test fails and the
// assertions above move back onto comapMild.
func TestCoMappingSleepsThroughMildSkew(t *testing.T) {
	hier, _ := runComap(t, placement.AdaptiveHier, comapMild, comapSeed)
	start := interleavedStart(t, comapMild, comapSeed)
	if hier.PlacementEpochs < 30 || hier.AwakeEpochs != 0 || hier.Migrations != 0 || hier.MaterializedLeaves != 0 {
		t.Errorf("hier: awake %d of %d epochs, %d migrations, %d heat stripes; want a run of >= 30 epochs slept through",
			hier.AwakeEpochs, hier.PlacementEpochs, hier.Migrations, hier.MaterializedLeaves)
	}
	if hr, sr := hier.RemoteAccessRatio(), start.RemoteAccessRatio(); hr != sr || hr < 0.7 {
		t.Errorf("remote share hier %.3f, interleaved start %.3f; want equal, ~0.75", hr, sr)
	}
}

// TestDirectoryStateIsOTouched asserts the hierarchical directory's scaling
// contract end to end: under the 2^28-stripe universe (memWords 2^26 per
// region), a run touching a 1024-word pool holds heat for at most the pool's
// stripes, leaving the universe overwhelmingly without state — and the gauge
// surfaces through Stats for the bench artifacts to record. The gauge is
// read when the run ends, so the run ends while the plane is awake: every
// worker stops at the first transaction boundary that finds heat stripes,
// and the last to stop found them after every access of the run had been
// recorded, so no later epoch can put the plane back to sleep. Run to its
// end, the same workload balances itself, falls asleep and reports what it
// then holds — nothing.
func TestDirectoryStateIsOTouched(t *testing.T) {
	fx := comapSteep
	fx.untilAwake = true
	st, dir := runComap(t, placement.AdaptiveHier, fx, comapSeed)
	if st.MaterializedLeaves == 0 {
		t.Fatal("no heat stripes reported")
	}
	if dir.NumStripes() < 1<<28 {
		t.Fatalf("stripe universe = %d, want >= 2^28 under memWords", dir.NumStripes())
	}
	if st.MaterializedLeaves > 1024 || 1<<16*st.MaterializedLeaves >= dir.NumStripes() {
		t.Fatalf("%d heat stripes for a 1024-word pool in a %d-stripe universe: not O(touched)", st.MaterializedLeaves, dir.NumStripes())
	}

	st, _ = runComap(t, placement.AdaptiveHier, comapSteep, comapSeed)
	if st.AwakeEpochs == 0 || st.AwakeEpochs >= st.PlacementEpochs {
		t.Fatalf("awake %d of %d epochs: the full run must wake the heat plane, and balancing it must let it sleep", st.AwakeEpochs, st.PlacementEpochs)
	}
	if st.MaterializedLeaves != 0 {
		t.Fatalf("asleep at the end with %d heat stripes over %d awake epochs", st.MaterializedLeaves, st.AwakeEpochs)
	}
}
