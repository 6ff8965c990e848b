package intset

import (
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
		Platform: noc.SCC(0), Seed: 13, TotalCores: cores, Policy: cm.FairCM,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var kinds = []core.TxKind{core.Normal, core.ElasticEarly, core.ElasticRead}

func checkSorted(t *testing.T, l *List) []uint64 {
	t.Helper()
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	return l.RawKeys()
}

func TestInitFillSorted(t *testing.T) {
	s := newSys(t, 4)
	l := New(s)
	r := port.NewRand(1)
	keys := l.InitFill(50, 500, &r)
	if len(keys) != 50 {
		t.Fatalf("inserted %d", len(keys))
	}
	if got := checkSorted(t, l); len(got) != 50 {
		t.Fatalf("list has %d keys", len(got))
	}
}

// TestCheckCatchesCorruption rewrites a filled list's second node with raw
// writes — a key out of order, a duplicate, a tombstone left linked, a
// cycle back to the head — and expects Check to fail on each.
func TestCheckCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(head mem.Addr, first, second node) node
	}{
		{"out-of-order", func(_ mem.Addr, _, n node) node { return node{Key: 1 << 40, Next: n.Next} }},
		{"duplicate", func(_ mem.Addr, f, n node) node { return node{Key: f.Key, Next: n.Next} }},
		{"tombstone", func(_ mem.Addr, _, n node) node { return node{Key: 0, Next: n.Next} }},
		{"cycle", func(head mem.Addr, _, n node) node { return node{Key: n.Key, Next: head} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := New(newSys(t, 2))
			r := port.NewRand(1)
			l.InitFill(8, 100, &r)
			if err := l.Check(); err != nil {
				t.Fatalf("filled list fails Check: %v", err)
			}
			head := l.head.GetRaw()
			first := l.nodeAt(head).GetRaw()
			second := l.nodeAt(first.Next)
			second.SetRaw(tc.corrupt(head, first, second.GetRaw()))
			if err := l.Check(); err == nil {
				t.Fatal("Check passed a corrupted list")
			}
		})
	}
}

func TestOpsMatchModelPerMode(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			s := newSys(t, 2) // single app core vs model
			l := New(s)
			model := make(map[uint64]bool)
			s.SpawnWorkers(func(rt *core.Runtime) {
				r := rt.Rand()
				for i := 0; i < 120; i++ {
					key := r.Uint64()%48 + 1
					switch r.Intn(3) {
					case 0:
						if got, want := l.Add(rt, kind, key), !model[key]; got != want {
							t.Errorf("%v Add(%d) = %v want %v", kind, key, got, want)
						}
						model[key] = true
					case 1:
						if got, want := l.Remove(rt, kind, key), model[key]; got != want {
							t.Errorf("%v Remove(%d) = %v want %v", kind, key, got, want)
						}
						delete(model, key)
					default:
						if got, want := l.Contains(rt, kind, key), model[key]; got != want {
							t.Errorf("%v Contains(%d) = %v want %v", kind, key, got, want)
						}
					}
				}
			})
			s.RunToCompletion()
			keys := checkSorted(t, l)
			if len(keys) != len(model) {
				t.Fatalf("size %d != model %d", len(keys), len(model))
			}
			for _, k := range keys {
				if !model[k] {
					t.Fatalf("stray key %d", k)
				}
			}
		})
	}
}

func TestConcurrentTorturePerMode(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			s := newSys(t, 8)
			l := New(s)
			r := port.NewRand(9)
			init := len(l.InitFill(16, 64, &r))
			deltas := make([]int, s.NumAppCores())
			s.SpawnWorkers(func(rt *core.Runtime) {
				rr := rt.Rand()
				d := 0
				for i := 0; i < 40; i++ {
					key := rr.Uint64()%64 + 1
					if rr.Intn(2) == 0 {
						if l.Add(rt, kind, key) {
							d++
						}
					} else {
						if l.Remove(rt, kind, key) {
							d--
						}
					}
				}
				deltas[rt.AppIndex()] = d
			})
			s.RunToCompletion()
			keys := checkSorted(t, l)
			net := init
			for _, d := range deltas {
				net += d
			}
			if len(keys) != net {
				t.Fatalf("%v: size %d != initial+net %d (lost/phantom update)", kind, len(keys), net)
			}
		})
	}
}

func TestElasticEarlySendsEarlyReleases(t *testing.T) {
	s := newSys(t, 2)
	l := New(s)
	r := port.NewRand(3)
	l.InitFill(32, 64, &r)
	s.SpawnWorkers(func(rt *core.Runtime) {
		for i := 0; i < 10; i++ {
			l.Contains(rt, core.ElasticEarly, 60) // deep traversal
		}
	})
	st := s.RunToCompletion()
	if st.EarlyReleases == 0 {
		t.Fatal("elastic-early sent no early releases")
	}
}

func TestElasticReadTakesNoReadLocks(t *testing.T) {
	s := newSys(t, 2)
	l := New(s)
	r := port.NewRand(3)
	l.InitFill(32, 64, &r)
	s.SpawnWorkers(func(rt *core.Runtime) {
		for i := 0; i < 10; i++ {
			l.Contains(rt, core.ElasticRead, 60)
		}
	})
	st := s.RunToCompletion()
	if st.ReadLockReqs != 0 {
		t.Fatalf("elastic-read sent %d read-lock requests, want 0", st.ReadLockReqs)
	}
	if st.WriteLockReqs != 0 {
		t.Fatalf("read-only ops sent %d write-lock requests", st.WriteLockReqs)
	}
}

func TestElasticReadDetectsConcurrentChange(t *testing.T) {
	// A writer changes the node under a slow elastic traversal; the
	// traversal must abort and retry rather than return stale structure.
	s := newSys(t, 4)
	l := New(s)
	r := port.NewRand(3)
	l.InitFill(64, 128, &r)
	s.SpawnWorkers(func(rt *core.Runtime) {
		rr := rt.Rand()
		for i := 0; i < 30; i++ {
			key := rr.Uint64()%128 + 1
			switch rt.AppIndex() {
			case 0:
				l.Contains(rt, core.ElasticRead, key)
			default:
				if rr.Intn(2) == 0 {
					l.Add(rt, core.Normal, key)
				} else {
					l.Remove(rt, core.Normal, key)
				}
			}
		}
	})
	st := s.RunToCompletion()
	checkSorted(t, l)
	_ = st // aborts may or may not occur at this scale; integrity is the invariant
}

func TestWorkerSmokeAllModes(t *testing.T) {
	for _, kind := range kinds {
		s := newSys(t, 8)
		l := New(s)
		r := port.NewRand(4)
		l.InitFill(64, 128, &r)
		s.SpawnWorkers(l.Worker(Workload{UpdatePct: 20, KeyRange: 128, Kind: kind}))
		st := s.Run(2 * time.Millisecond)
		if st.Ops == 0 {
			t.Fatalf("%v: no ops", kind)
		}
		checkSorted(t, l)
	}
}
