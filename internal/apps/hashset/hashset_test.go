package hashset

import (
	"sort"
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
)

func newSys(t *testing.T, cores int) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Config{
		Platform: noc.SCC(0), Seed: 11, TotalCores: cores, Policy: cm.FairCM,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkIntegrity(t *testing.T, s *Set) []uint64 {
	t.Helper()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	all := s.RawKeys()
	seen := make(map[uint64]bool)
	for _, k := range all {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	return all
}

func TestInitFillCountAndIntegrity(t *testing.T) {
	s := newSys(t, 4)
	set := New(s, 16)
	r := port.NewRand(3)
	keys := set.InitFill(100, 1000, &r)
	if len(keys) != 100 {
		t.Fatalf("InitFill returned %d keys", len(keys))
	}
	all := checkIntegrity(t, set)
	if len(all) != 100 {
		t.Fatalf("table holds %d keys, want 100", len(all))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := range keys {
		if keys[i] != all[i] {
			t.Fatalf("key mismatch at %d", i)
		}
	}
}

func TestTransactionalOpsMatchModel(t *testing.T) {
	s := newSys(t, 2) // 1 app core: sequential consistency vs model
	set := New(s, 8)
	model := make(map[uint64]bool)
	s.SpawnWorkers(func(rt *core.Runtime) {
		r := rt.Rand()
		for i := 0; i < 150; i++ {
			key := r.Uint64()%64 + 1
			switch r.Intn(3) {
			case 0:
				if got, want := set.Add(rt, key), !model[key]; got != want {
					t.Errorf("Add(%d) = %v, want %v", key, got, want)
				}
				model[key] = true
			case 1:
				if got, want := set.Remove(rt, key), model[key]; got != want {
					t.Errorf("Remove(%d) = %v, want %v", key, got, want)
				}
				delete(model, key)
			default:
				if got, want := set.Contains(rt, key), model[key]; got != want {
					t.Errorf("Contains(%d) = %v, want %v", key, got, want)
				}
			}
		}
	})
	s.RunToCompletion()
	all := checkIntegrity(t, set)
	if len(all) != len(model) {
		t.Fatalf("final size %d != model %d", len(all), len(model))
	}
	for _, k := range all {
		if !model[k] {
			t.Fatalf("stray key %d", k)
		}
	}
}

func TestSeqOpsMatchModel(t *testing.T) {
	s := newSys(t, 2)
	set := New(s, 8)
	model := make(map[uint64]bool)
	s.SpawnRaw(func(p core.Port, coreID int) {
		r := p.Rand()
		for i := 0; i < 150; i++ {
			key := r.Uint64()%64 + 1
			switch r.Intn(3) {
			case 0:
				if got, want := set.SeqAdd(p, coreID, key), !model[key]; got != want {
					t.Errorf("SeqAdd(%d) = %v, want %v", key, got, want)
				}
				model[key] = true
			case 1:
				if got, want := set.SeqRemove(p, coreID, key), model[key]; got != want {
					t.Errorf("SeqRemove(%d) = %v, want %v", key, got, want)
				}
				delete(model, key)
			default:
				if got, want := set.SeqContains(p, coreID, key), model[key]; got != want {
					t.Errorf("SeqContains(%d) = %v, want %v", key, got, want)
				}
			}
		}
	})
	s.RunToCompletion()
	checkIntegrity(t, set)
}

func TestConcurrentTortureKeepsIntegrity(t *testing.T) {
	s := newSys(t, 8)
	set := New(s, 4) // tiny table: heavy conflicts
	r := port.NewRand(5)
	set.InitFill(8, 64, &r)
	// Track net successful structural updates to validate against the
	// final size.
	deltas := make([]int, s.NumAppCores())
	s.SpawnWorkers(func(rt *core.Runtime) {
		rr := rt.Rand()
		d := 0
		for i := 0; i < 60; i++ {
			key := rr.Uint64()%64 + 1
			if rr.Intn(2) == 0 {
				if set.Add(rt, key) {
					d++
				}
			} else {
				if set.Remove(rt, key) {
					d--
				}
			}
		}
		deltas[rt.AppIndex()] = d
	})
	s.RunToCompletion()
	all := checkIntegrity(t, set)
	net := 8
	for _, d := range deltas {
		net += d
	}
	if len(all) != net {
		t.Fatalf("final size %d != initial+net %d (lost or phantom updates)", len(all), net)
	}
}

func TestMoveIsAtomic(t *testing.T) {
	s := newSys(t, 2)
	set := New(s, 8)
	r := port.NewRand(1)
	set.InitFill(10, 100, &r)
	before := len(set.RawKeys())
	s.SpawnWorkers(func(rt *core.Runtime) {
		keys := set.RawKeys()
		from := keys[0]
		// moving to a fresh key preserves cardinality
		if !set.Move(rt, from, 101) {
			t.Errorf("Move(%d, 101) failed", from)
		}
		// moving a missing key fails
		if set.Move(rt, 9999, 102) {
			t.Error("Move of absent key succeeded")
		}
	})
	s.RunToCompletion()
	all := checkIntegrity(t, set)
	if len(all) != before {
		t.Fatalf("move changed cardinality: %d -> %d", before, len(all))
	}
	found := false
	for _, k := range all {
		if k == 101 {
			found = true
		}
	}
	if !found {
		t.Fatal("moved key missing")
	}
}

func TestWorkerAndOpMixSmoke(t *testing.T) {
	s := newSys(t, 8)
	set := New(s, 64)
	r := port.NewRand(2)
	set.InitFill(128, 256, &r)
	s.SpawnWorkers(set.Worker(Workload{UpdatePct: 20, KeyRange: 256}))
	st := s.Run(2_000_000) // 2ms
	if st.Ops == 0 || st.Commits == 0 {
		t.Fatalf("no progress: %+v", st)
	}
	checkIntegrity(t, set)
}

func TestMoveWorkloadMix(t *testing.T) {
	s := newSys(t, 8)
	set := New(s, 16)
	r := port.NewRand(2)
	set.InitFill(64, 128, &r)
	s.SpawnWorkers(set.Worker(Workload{UpdatePct: 10, MovePct: 20, KeyRange: 128}))
	st := s.Run(2_000_000)
	if st.Ops == 0 {
		t.Fatal("no ops")
	}
	checkIntegrity(t, set)
}

// TestCheckCatchesMisplacedKey files a key, in order, into a bucket its hash
// does not name: each bucket is still sorted, and Check must fail.
func TestCheckCatchesMisplacedKey(t *testing.T) {
	set := New(newSys(t, 2), 8)
	r := port.NewRand(3)
	set.InitFill(32, 256, &r)
	if err := set.Check(); err != nil {
		t.Fatalf("filled table fails Check: %v", err)
	}
	const key = 1000
	set.list((set.bucketOf(key) + 1) % 8).AddRaw(key)
	if err := set.Check(); err == nil {
		t.Fatal("Check passed a key in the wrong bucket")
	}
}

func TestHashKeySpreads(t *testing.T) {
	counts := make([]int, 16)
	for k := uint64(1); k <= 1600; k++ {
		counts[hashKey(k)%16]++
	}
	for i, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("bucket %d holds %d of 1600 (bad spread)", i, c)
		}
	}
}
