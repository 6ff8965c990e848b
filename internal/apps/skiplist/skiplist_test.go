package skiplist

import (
	"sort"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/port"
)

func newSys(t *testing.T, cores int) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Config{
		Platform: noc.SCC(0), Seed: 17, TotalCores: cores, Policy: cm.FairCM,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRandomLevelDistribution(t *testing.T) {
	r := port.NewRand(1)
	counts := make([]int, MaxLevel+1)
	const n = 100000
	for i := 0; i < n; i++ {
		lvl := randomLevel(&r)
		if lvl < 1 || lvl > MaxLevel {
			t.Fatalf("level %d out of range", lvl)
		}
		counts[lvl]++
	}
	// Geometric with p=1/4: level 1 ~ 75%, level 2 ~ 18.75%, ...
	if counts[1] < n*70/100 || counts[1] > n*80/100 {
		t.Errorf("level-1 fraction %d of %d (want ~75%%)", counts[1], n)
	}
	if counts[2] > counts[1] || counts[3] > counts[2] {
		t.Error("level distribution not decreasing")
	}
}

func TestInitFillAndIntegrity(t *testing.T) {
	s := newSys(t, 4)
	l := New(s)
	r := port.NewRand(2)
	keys := l.InitFill(200, 1000, &r)
	size, err := l.CheckTowers()
	if err != nil {
		t.Fatal(err)
	}
	if size != 200 {
		t.Fatalf("size = %d", size)
	}
	got := l.RawKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %d != %d", i, got[i], keys[i])
		}
	}
}

func TestOpsMatchModel(t *testing.T) {
	s := newSys(t, 2)
	l := New(s)
	model := make(map[uint64]bool)
	s.SpawnWorkers(func(rt *core.Runtime) {
		r := rt.Rand()
		for i := 0; i < 150; i++ {
			key := r.Uint64()%96 + 1
			switch r.Intn(3) {
			case 0:
				if got, want := l.Add(rt, key), !model[key]; got != want {
					t.Errorf("Add(%d) = %v, want %v", key, got, want)
				}
				model[key] = true
			case 1:
				if got, want := l.Remove(rt, key), model[key]; got != want {
					t.Errorf("Remove(%d) = %v, want %v", key, got, want)
				}
				delete(model, key)
			default:
				if got, want := l.Contains(rt, key), model[key]; got != want {
					t.Errorf("Contains(%d) = %v, want %v", key, got, want)
				}
			}
		}
	})
	s.RunToCompletion()
	size, err := l.CheckTowers()
	if err != nil {
		t.Fatal(err)
	}
	if size != len(model) {
		t.Fatalf("size %d != model %d", size, len(model))
	}
}

func TestConcurrentTortureIntegrity(t *testing.T) {
	s := newSys(t, 8)
	l := New(s)
	r := port.NewRand(7)
	init := len(l.InitFill(32, 128, &r))
	deltas := make([]int, s.NumAppCores())
	s.SpawnWorkers(func(rt *core.Runtime) {
		rr := rt.Rand()
		d := 0
		for i := 0; i < 40; i++ {
			key := rr.Uint64()%128 + 1
			if rr.Intn(2) == 0 {
				if l.Add(rt, key) {
					d++
				}
			} else {
				if l.Remove(rt, key) {
					d--
				}
			}
		}
		deltas[rt.AppIndex()] = d
	})
	s.RunToCompletion()
	size, err := l.CheckTowers()
	if err != nil {
		t.Fatal(err)
	}
	net := init
	for _, d := range deltas {
		net += d
	}
	if size != net {
		t.Fatalf("size %d != initial+net %d (lost/phantom update)", size, net)
	}
	if s.LockedAddrs() != 0 {
		t.Fatal("lock leak")
	}
}

func TestConcurrentAuditSerializable(t *testing.T) {
	s := newSys(t, 8)
	s.EnableAudit()
	l := New(s)
	r := port.NewRand(3)
	l.InitFill(32, 96, &r)
	// Capture the raw initial state for the audit model.
	initial := snapshotWords(s)
	s.SpawnWorkers(l.Worker(Workload{UpdatePct: 40, KeyRange: 96}))
	s.Run(2 * time.Millisecond)
	if _, err := l.CheckTowers(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAudit(initial); err != nil {
		t.Fatalf("skip list history not serializable: %v", err)
	}
}

func snapshotWords(s *core.System) map[mem.Addr]uint64 {
	// Walk the allocator's used region of controller 0 conservatively by
	// re-reading every address the structure can reference.
	snap := make(map[mem.Addr]uint64)
	for a := mem.Addr(1); a < 4096; a++ {
		if v := s.Mem.ReadRaw(a); v != 0 {
			snap[a] = v
		}
	}
	return snap
}

func TestWorkerSmoke(t *testing.T) {
	s := newSys(t, 8)
	l := New(s)
	r := port.NewRand(4)
	l.InitFill(64, 256, &r)
	s.SpawnWorkers(l.Worker(Workload{UpdatePct: 20, KeyRange: 256}))
	st := s.Run(2 * time.Millisecond)
	if st.Ops == 0 || st.Commits == 0 {
		t.Fatalf("no progress: %+v", st)
	}
	if _, err := l.CheckTowers(); err != nil {
		t.Fatal(err)
	}
}
