// Live-backend stress tests: all four applications of the evaluation run on
// the real-concurrency goroutine backend, under -race in CI. The sim
// backend's serializability audit is unavailable here (there is no global
// commit order to replay), so correctness is checked at the invariant
// level, exactly as on real hardware: conservation laws, structural
// integrity of the shared structures, and empty lock tables at quiesce.
//
// The app tests run once per read-visibility protocol: the invisible-read
// TL2 mode's version-table reads, write-back markers, clock ticks and
// commit-time revalidation race real goroutines too.
package live_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/apps/hashset"
	"repro/internal/apps/intset"
	"repro/internal/apps/mapreduce"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/port"
	"repro/internal/trace"
)

// liveWindow is the wall-clock measurement window per app. Short: the point
// is exercising real concurrency, not throughput.
const liveWindow = 40 * time.Millisecond

// onPlainPlane runs body as the subtest "plain", named for the one message
// plane: every payload is its own wire message.
func onPlainPlane(t *testing.T, body func(t *testing.T)) {
	t.Run("plain", body)
}

// eachProtocol runs body once per read-visibility protocol, as subtests.
func eachProtocol(t *testing.T, body func(t *testing.T, proto core.Protocol)) {
	onPlainPlane(t, func(t *testing.T) {
		for _, proto := range []core.Protocol{core.ProtocolVisible, core.ProtocolTL2} {
			t.Run(proto.String(), func(t *testing.T) { body(t, proto) })
		}
	})
}

func liveSystem(t *testing.T, proto core.Protocol, mut func(*core.Config)) *core.System {
	t.Helper()
	cfg := core.Config{
		Backend:    core.BackendLive,
		Seed:       7,
		TotalCores: 12,
		// FairCM: starvation-free, so every in-flight transaction finishes
		// and the post-deadline drain stays short (NoCM can livelock on
		// hot keys — on live that is real spinning, not virtual time).
		Policy:   cm.FairCM,
		Protocol: proto,
		// Every live app test runs with the flight recorder on, so the
		// emit paths race real goroutines under -race in CI.
		Trace: &trace.Options{ActorEvents: 1024},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

// checkQuiesced asserts the invariants every drained run must satisfy on
// any backend: work happened, and no lock survived the drain.
func checkQuiesced(t *testing.T, s *core.System, st *core.Stats) {
	t.Helper()
	if st.Commits == 0 {
		t.Error("no transaction committed")
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Errorf("%d addresses still locked after drain", leaked)
	}
	if tr := s.Trace(); tr == nil {
		t.Error("flight recorder enabled but no trace assembled")
	} else if len(tr.Events) == 0 {
		t.Error("flight recorder enabled but trace is empty")
	}
}

func TestLiveBank(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto core.Protocol) {
		s := liveSystem(t, proto, nil)
		const accounts = 128
		b := bank.New(s, accounts)
		s.SpawnWorkers(b.TransferWorker(10))
		st := s.Run(liveWindow)
		checkQuiesced(t, s, st)
		if b.TotalRaw() != b.Total() {
			t.Errorf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
		}
	})
}

func TestLiveBankZipfAdaptive(t *testing.T) {
	// Skewed writes against the hier directory: migrations, stale NACKs and
	// handoffs all race real goroutines here. A run in which no variant
	// migrated raced none of that, so it fails rather than passing vacuously.
	// Race instrumentation slows every operation, and a 40 ms window then
	// closes so few 512-access epochs that 46 of 100 variants migrated
	// nothing: under -race the window is four times longer (0 of 200).
	window := liveWindow
	if raceEnabled {
		window *= 4
	}
	var migrations uint64
	eachProtocol(t, func(t *testing.T, proto core.Protocol) {
		s := liveSystem(t, proto, func(c *core.Config) {
			c.Placement = placement.AdaptiveHier
			c.RepartitionEpoch = 512
		})
		const accounts = 256
		b := bank.New(s, accounts)
		s.SpawnWorkers(b.ZipfTransferWorker(0, 1.1))
		st := s.Run(window)
		checkQuiesced(t, s, st)
		if b.TotalRaw() != b.Total() {
			t.Errorf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
		}
		if err := s.Placement().CheckInvariants(); err != nil {
			t.Errorf("directory invariants violated: %v", err)
		}
		t.Logf("%d migrations, %d handoffs, %d stale NACKs", st.Migrations, st.Handoffs, st.StaleNacks)
		migrations += st.Migrations
	})
	if migrations == 0 {
		t.Error("no variant initiated a migration: the remap protocol never raced")
	}
}

func TestLiveHashSet(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto core.Protocol) {
		s := liveSystem(t, proto, nil)
		set := hashset.New(s, 32)
		r := port.NewRand(11)
		keys := set.InitFill(128, 512, &r)
		s.SpawnWorkers(set.Worker(hashset.Workload{UpdatePct: 30, KeyRange: 512}))
		st := s.Run(liveWindow)
		checkQuiesced(t, s, st)
		if len(keys) == 0 {
			t.Fatal("init fill inserted nothing")
		}
		if err := set.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLiveIntSet(t *testing.T) {
	for _, kind := range []core.TxKind{core.Normal, core.ElasticEarly, core.ElasticRead} {
		t.Run(kind.String(), func(t *testing.T) {
			eachProtocol(t, func(t *testing.T, proto core.Protocol) {
				s := liveSystem(t, proto, nil)
				l := intset.New(s)
				r := port.NewRand(13)
				l.InitFill(96, 384, &r)
				s.SpawnWorkers(l.Worker(intset.Workload{UpdatePct: 25, KeyRange: 384, Kind: kind}))
				st := s.Run(liveWindow)
				checkQuiesced(t, s, st)
				if err := l.Check(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

func TestLiveMapReduce(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto core.Protocol) {
		s := liveSystem(t, proto, func(c *core.Config) { c.ServiceCores = 2 })
		const size = 96 << 10
		j := mapreduce.NewJob(s, 7, size, 8<<10)
		s.SpawnWorkers(func(rt *core.Runtime) { j.Worker(rt) })
		st := s.RunToCompletion()
		checkQuiesced(t, s, st)
		if got := j.HistogramTotal(); got != size {
			t.Fatalf("merged %d of %d bytes", got, size)
		}
		if j.HistogramRaw() != j.Expected() {
			t.Fatal("histogram does not match the sequential model")
		}
	})
}

func TestLiveMultitaskDeployment(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto core.Protocol) {
		s := liveSystem(t, proto, func(c *core.Config) { c.Deployment = core.Multitask; c.TotalCores = 8 })
		b := bank.New(s, 64)
		s.SpawnWorkers(b.TransferWorker(5))
		st := s.Run(liveWindow)
		checkQuiesced(t, s, st)
		if b.TotalRaw() != b.Total() {
			t.Errorf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
		}
	})
}

func TestLiveRawBaseline(t *testing.T) {
	// SpawnRaw + global lock on the live backend: TAS mutual exclusion
	// must hold under real concurrency.
	s := liveSystem(t, core.ProtocolVisible, func(c *core.Config) { c.ServiceCores = -1; c.TotalCores = 8 })
	b := bank.New(s, 32)
	l := bank.NewGlobalLock(s)
	deadline := port.Time(liveWindow)
	s.SpawnRaw(func(p core.Port, coreID int) {
		r := p.Rand()
		for p.Now() < deadline {
			from, to := bank.PickTransfer(r, 32)
			b.LockTransfer(l, p, coreID, from, to, 1)
			s.AddOps(1)
		}
	})
	st := s.RunToCompletion()
	if st.Ops == 0 {
		t.Fatal("raw workers did nothing")
	}
	if b.TotalRaw() != b.Total() {
		t.Errorf("money not conserved under global lock: %d != %d", b.TotalRaw(), b.Total())
	}
}

func TestLiveBarrier(t *testing.T) {
	// The §8 privatization barrier across really-concurrent workers: every
	// core increments its slot transactionally, meets the barrier, then
	// reads everyone else's slot directly (privatized by the barrier).
	eachProtocol(t, func(t *testing.T, proto core.Protocol) {
		s := liveSystem(t, proto, func(c *core.Config) { c.TotalCores = 8 })
		n := s.NumAppCores()
		slots := core.NewTArray(s, core.Uint64Codec(), n, 0)
		s.SpawnWorkers(func(rt *core.Runtime) {
			i := rt.AppIndex()
			rt.Run(func(tx *core.Tx) { slots.Set(tx, i, uint64(i)+1) })
			rt.Barrier()
			for j := 0; j < n; j++ {
				if got := slots.At(j).GetDirect(rt.Port(), rt.Core()); got != uint64(j)+1 {
					panic(fmt.Sprintf("core %d saw slot %d = %d after barrier, want %d", i, j, got, j+1))
				}
			}
			rt.Barrier()
		})
		st := s.RunToCompletion()
		checkQuiesced(t, s, st)
	})
}

// TestLiveIrrevocable stays on the visible protocol: irrevocability
// requires it (RunIrrevocable panics under tl2).
func TestLiveIrrevocable(t *testing.T) {
	onPlainPlane(t, func(t *testing.T) { runIrrevocableBank(t) })
}

// runIrrevocableBank runs a bank mix whose transfers are 5 % irrevocable and
// checks it quiesced, ran irrevocables and conserved the money. App core 0's
// first transfer is irrevocable and runs however late the core starts, so
// every run completes at least one, whatever the window leaves time for.
func runIrrevocableBank(t *testing.T) {
	s := liveSystem(t, core.ProtocolVisible, func(c *core.Config) { c.TotalCores = 8 })
	const accounts = 64
	accts := core.NewTArray(s, core.Uint64Codec(), accounts, 1000)
	s.SpawnWorkers(func(rt *core.Runtime) {
		r := rt.Rand()
		for first := rt.AppIndex() == 0; first || !rt.Stopped(); first = false {
			from, to := bank.PickTransfer(r, accounts)
			if first || r.Intn(100) < 5 {
				rt.RunIrrevocable(func(ir *core.Irrevocable) {
					f := accts.At(from).GetIr(ir)
					tv := accts.At(to).GetIr(ir)
					accts.At(from).SetIr(ir, f-1)
					accts.At(to).SetIr(ir, tv+1)
				})
			} else {
				rt.Run(func(tx *core.Tx) {
					f := accts.Get(tx, from)
					tv := accts.Get(tx, to)
					accts.Set(tx, from, f-1)
					accts.Set(tx, to, tv+1)
				})
			}
			rt.AddOps(1)
		}
	})
	st := s.Run(liveWindow)
	checkQuiesced(t, s, st)
	if st.Irrevocables == 0 {
		t.Error("no irrevocable transaction completed")
	}
	var sum uint64
	for i := 0; i < accounts; i++ {
		sum += accts.GetRaw(i)
	}
	if want := uint64(accounts) * 1000; sum != want {
		t.Errorf("money not conserved across irrevocable mix: %d != %d", sum, want)
	}
}
