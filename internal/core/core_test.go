package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// testSystem builds a small dedicated-deployment system.
func testSystem(t *testing.T, mut func(*Config)) *System {
	t.Helper()
	cfg := Config{
		Platform:   noc.SCC(0),
		Seed:       42,
		TotalCores: 8,
		Policy:     cm.FairCM,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{TotalCores: 1},
		{TotalCores: 100},
		{TotalCores: 4, ServiceCores: 4},
		{TotalCores: 4, ServiceCores: 7},
		{TotalCores: 4, Deployment: Deployment(2)},
		{TotalCores: 4, Acquire: AcquireMode(2)},
		{TotalCores: 4, Policy: cm.Policy(9)},
		{TotalCores: 4, RPCDeadline: -time.Second},
	}
	for i, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	s, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.TotalCores != 48 || cfg.ServiceCores != 24 {
		t.Fatalf("defaults = %d cores, %d service", cfg.TotalCores, cfg.ServiceCores)
	}
	if s.NumAppCores() != 24 || s.NumServiceCores() != 24 {
		t.Fatalf("partition = %d app / %d svc", s.NumAppCores(), s.NumServiceCores())
	}
}

// TestDefaultServiceSplit: with ServiceCores unset, a dedicated deployment
// gives half the cores to the DTM service, rounded down (the paper's
// half/half split), leaving at least one core on each side.
func TestDefaultServiceSplit(t *testing.T) {
	for total, want := range map[int]int{2: 1, 3: 1, 4: 2, 48: 24} {
		s := testSystem(t, func(c *Config) { c.TotalCores = total })
		if got := s.NumServiceCores(); got != want {
			t.Errorf("%d cores: %d service cores, want %d", total, got, want)
		}
	}
}

func TestPartitionIsDisjointAndSpread(t *testing.T) {
	s := testSystem(t, nil)
	seen := make(map[int]bool)
	for _, c := range append(s.AppCores(), s.svcCores...) {
		if seen[c] {
			t.Fatalf("core %d in both partitions", c)
		}
		seen[c] = true
	}
	if len(seen) != 8 {
		t.Fatalf("partitions cover %d cores, want 8", len(seen))
	}
}

func TestSingleTransactionReadWriteCommit(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(2, 0)
	s.Mem.WriteRaw(a, 100)
	s.Mem.WriteRaw(a+1, 50)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		attempts := rt.Run(func(tx *Tx) {
			x := tx.Read(a)
			y := tx.Read(a + 1)
			tx.Write(a, x-10)
			tx.Write(a+1, y+10)
		})
		if attempts != 1 {
			t.Errorf("uncontended tx used %d attempts", attempts)
		}
		rt.AddOps(1)
	})
	st := s.RunToCompletion()
	if got := s.Mem.ReadRaw(a); got != 90 {
		t.Errorf("a = %d, want 90", got)
	}
	if got := s.Mem.ReadRaw(a + 1); got != 60 {
		t.Errorf("a+1 = %d, want 60", got)
	}
	if st.Commits != 1 || st.Aborts != 0 || st.Ops != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.ReadLockReqs != 2 || st.WriteLockReqs == 0 || st.ReleaseMsgs == 0 {
		t.Errorf("message stats = %+v", st)
	}
}

func TestReadYourWritesAndReadCaching(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	s.Mem.WriteRaw(a, 7)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) {
			if v := tx.Read(a); v != 7 {
				t.Errorf("first read = %d", v)
			}
			if v := tx.Read(a); v != 7 { // cached, no second request
				t.Errorf("cached read = %d", v)
			}
			tx.Write(a, 9)
			if v := tx.Read(a); v != 9 { // read-your-writes
				t.Errorf("read-after-write = %d", v)
			}
		})
	})
	st := s.RunToCompletion()
	if st.ReadLockReqs != 1 {
		t.Errorf("ReadLockReqs = %d, want 1 (caching broken)", st.ReadLockReqs)
	}
}

func TestMultiWordObjects(t *testing.T) {
	s := testSystem(t, nil)
	obj := s.Mem.Alloc(4, 1)
	for i := 0; i < 4; i++ {
		s.Mem.WriteRaw(obj+mem.Addr(i), uint64(i+1))
	}
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) {
			v := tx.ReadN(obj, 4)
			if len(v) != 4 || v[3] != 4 {
				t.Errorf("ReadN = %v", v)
			}
			v[0] = 999 // must not corrupt the tx cache
			w := tx.ReadN(obj, 4)
			if w[0] != 1 {
				t.Errorf("tx cache corrupted by caller mutation: %v", w)
			}
			tx.WriteN(obj, []uint64{10, 20, 30, 40})
		})
	})
	st := s.RunToCompletion()
	if st.ReadLockReqs != 1 {
		t.Errorf("multi-word object took %d read-lock requests, want 1", st.ReadLockReqs)
	}
	for i, want := range []uint64{10, 20, 30, 40} {
		if got := s.Mem.ReadRaw(obj + mem.Addr(i)); got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
}

// runMiniBank runs a conflict-heavy transfer workload and checks the core
// TM invariants: money is conserved and every balance snapshot observes the
// full total (an opacity witness). The contention level is chosen per
// policy: livelock-prone policies (NoCM, BackoffRetry — exactly the ones
// Figure 5(a) shows collapsing) get a lighter workload so the finite-ops
// run terminates; the starvation-free CMs are tortured on 8 hot accounts.
func runMiniBank(t *testing.T, mut func(*Config), opsPerCore int) *Stats {
	return runMiniBankN(t, mut, opsPerCore, 8)
}

func runMiniBankN(t *testing.T, mut func(*Config), opsPerCore, accounts int) *Stats {
	t.Helper()
	s := testSystem(t, mut)
	const initial = 1000
	base := s.Mem.Alloc(accounts, 0)
	for i := 0; i < accounts; i++ {
		s.Mem.WriteRaw(base+mem.Addr(i), initial)
	}
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < opsPerCore; i++ {
			if r.Intn(10) == 0 && accounts <= 16 {
				// balance: read everything, verify the snapshot
				var sum uint64
				rt.Run(func(tx *Tx) {
					sum = 0
					for a := 0; a < accounts; a++ {
						sum += tx.Read(base + mem.Addr(a))
					}
				})
				if sum != uint64(accounts)*initial {
					t.Errorf("balance snapshot = %d, want %d (opacity violated)", sum, uint64(accounts)*initial)
				}
			} else {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(base + mem.Addr(from))
					tv := tx.Read(base + mem.Addr(to))
					tx.Write(base+mem.Addr(from), f-1)
					tx.Write(base+mem.Addr(to), tv+1)
				})
			}
			rt.AddOps(1)
		}
	})
	st := s.RunToCompletion()
	var total uint64
	for i := 0; i < accounts; i++ {
		total += s.Mem.ReadRaw(base + mem.Addr(i))
	}
	if total != uint64(accounts)*initial {
		t.Errorf("money not conserved: %d != %d", total, uint64(accounts)*initial)
	}
	if leaked := s.LockedAddrs(); leaked != 0 {
		t.Errorf("%d addresses still locked after a drained run (lock leak)", leaked)
	}
	return st
}

func TestBankInvariantsUnderEveryCM(t *testing.T) {
	for _, p := range cm.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			accounts := 8
			if !p.StarvationFree() {
				// Livelock-prone policies (the Fig. 5(a) collapse) need a
				// lighter workload to terminate a finite-ops run.
				accounts = 64
			}
			st := runMiniBankN(t, func(c *Config) { c.Policy = p }, 40, accounts)
			if st.Commits == 0 {
				t.Fatal("no commits")
			}
		})
	}
}

func TestBankInvariantsEagerAcquisition(t *testing.T) {
	st := runMiniBank(t, func(c *Config) { c.Acquire = Eager }, 30)
	if st.Commits == 0 {
		t.Fatal("no commits")
	}
}

func TestBankInvariantsMultitask(t *testing.T) {
	st := runMiniBank(t, func(c *Config) { c.Deployment = Multitask }, 25)
	if st.Commits == 0 {
		t.Fatal("no commits under multitask deployment")
	}
}

func TestConflictsAreDetectedAndResolved(t *testing.T) {
	st := runMiniBank(t, func(c *Config) { c.Policy = cm.Wholly }, 60)
	if st.Conflicts == 0 {
		t.Error("conflict-heavy workload reported no conflicts")
	}
	if st.Aborts == 0 {
		t.Error("expected some aborts")
	}
	if st.Revocations == 0 {
		t.Error("priority CM never aborted an enemy")
	}
}

// TestBatchingReducesMessages: a lazy commit sends exactly one write-lock
// request per DTM node its write set touches (§3.3), not one per object.
func TestBatchingReducesMessages(t *testing.T) {
	s := testSystem(t, nil)
	base := s.Mem.Alloc(32, 0)
	nodes := make(map[int]bool)
	for j := 0; j < 16; j++ {
		nodes[s.dir.Owner(base+mem.Addr(j))] = true
	}
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		for i := 0; i < 5; i++ {
			rt.Run(func(tx *Tx) {
				for j := 0; j < 16; j++ {
					tx.Write(base+mem.Addr(j), uint64(i*100+j))
				}
			})
		}
	})
	st := s.RunToCompletion()
	// 16 objects over the 4 DTM nodes of an 8-core system.
	if want := uint64(5 * len(nodes)); st.WriteLockReqs != want || len(nodes) >= 16 {
		t.Fatalf("WriteLockReqs = %d for 5 commits over %d nodes, want %d", st.WriteLockReqs, len(nodes), want)
	}
}

func TestWholeSystemDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		s := testSystem(t, func(c *Config) { c.Policy = cm.Wholly })
		base := s.Mem.Alloc(4, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 30; i++ {
				a := mem.Addr(r.Intn(4))
				rt.Run(func(tx *Tx) {
					v := tx.Read(base + a)
					tx.Write(base+a, v+1)
				})
			}
		})
		st := s.RunToCompletion()
		return st.Commits, st.Aborts, uint64(st.Duration)
	}
	c1, a1, d1 := run()
	c2, a2, d2 := run()
	if c1 != c2 || a1 != a2 || d1 != d2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, a1, d1, c2, a2, d2)
	}
}

func TestStarvationFreedomEveryCoreCommits(t *testing.T) {
	for _, p := range []cm.Policy{cm.Wholly, cm.FairCM} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := testSystem(t, func(c *Config) { c.Policy = p })
			// Single hot word: every transaction conflicts.
			hot := s.Mem.Alloc(1, 0)
			s.SpawnWorkers(func(rt *Runtime) {
				for !rt.Stopped() {
					rt.Run(func(tx *Tx) {
						v := tx.Read(hot)
						tx.Write(hot, v+1)
					})
					rt.AddOps(1)
				}
			})
			st := s.Run(20 * time.Millisecond)
			for _, pc := range st.PerCore {
				if pc.Commits == 0 {
					t.Errorf("core %d starved (0 commits of %d total)", pc.Core, st.Commits)
				}
			}
			if got := s.Mem.ReadRaw(hot); got != st.Commits {
				t.Errorf("hot counter = %d, commits = %d (lost update!)", got, st.Commits)
			}
		})
	}
}

func TestDurationRunStopsAndShutsDown(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		for !rt.Stopped() {
			rt.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
			rt.AddOps(1)
		}
	})
	st := s.Run(5 * time.Millisecond)
	if st.Duration < 5_000_000 || st.Duration > 80_000_000 {
		t.Fatalf("duration = %v, want 5ms plus a short drain tail", st.Duration)
	}
	if st.Ops == 0 {
		t.Fatal("no ops in 5ms")
	}
	if s.K.Live() != 0 {
		t.Fatalf("leaked %d procs after Run", s.K.Live())
	}
	if st.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestPerCoreStats(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(8, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		for i := 0; i < 3; i++ {
			addr := a + mem.Addr(rt.AppIndex())
			rt.Run(func(tx *Tx) { tx.Write(addr, 1) })
			rt.AddOps(1)
		}
	})
	st := s.RunToCompletion()
	if len(st.PerCore) != s.NumAppCores() {
		t.Fatalf("PerCore has %d entries", len(st.PerCore))
	}
	for _, pc := range st.PerCore {
		if pc.Commits != 3 || pc.Ops != 3 {
			t.Errorf("core %d: %+v", pc.Core, pc)
		}
	}
	if st.Commits != uint64(3*s.NumAppCores()) {
		t.Errorf("total commits = %d", st.Commits)
	}
}

// TestShardsMergeWinnerWaits: the winner-wait and ended-winner resend
// counters are kept per execution context and summed at the snapshot, like
// RPCTimeouts.
func TestShardsMergeWinnerWaits(t *testing.T) {
	var st Stats
	for _, sh := range []Stats{
		{WinnerWaits: 2, WinnerWaitTime: 300, RPCTimeouts: 1, EndedResends: 4},
		{},
		{WinnerWaits: 5, WinnerWaitTime: 700, RPCTimeouts: 2, EndedResends: 6},
	} {
		st.addShard(&sh)
	}
	if st.WinnerWaits != 7 || st.WinnerWaitTime != 1000 || st.RPCTimeouts != 3 || st.EndedResends != 10 {
		t.Fatalf("merged winner waits %d lasting %v, %d RPC timeouts, %d ended-winner resends; want 7, 1µs, 3, 10",
			st.WinnerWaits, st.WinnerWaitTime, st.RPCTimeouts, st.EndedResends)
	}
}

// TestAddShardMergesEveryCounter walks Stats by reflection: addShard must
// sum every numeric field and every element of a numeric array (MaxAttempts
// by max), unless the list below names the field as one the snapshot writes
// once. A counter added to Stats and never merged fails here.
func TestAddShardMergesEveryCounter(t *testing.T) {
	writtenOnce := map[string]string{
		"Commits": "CoreStats, summed per runtime by the snapshot",
		"Aborts":  "CoreStats, summed per runtime by the snapshot",
		"Ops":     "CoreStats, summed per runtime by the snapshot",
		// The directory gauges, read from the one placement.Directory.
		"RepartitionRounds":  "directory",
		"PlacementEpochs":    "directory",
		"AwakeEpochs":        "directory",
		"Migrations":         "directory",
		"Handoffs":           "directory",
		"MaterializedLeaves": "directory",
		"LocalAccesses":      "directory",
		"RemoteAccesses":     "directory",
		"CoalescedPayloads":  "never counted: always 0",
		"NodeLoad":           "one element per DTM node",
		"PerCore":            "one element per runtime",
		"Duration":           "the run's length",
	}
	var st, sh Stats
	sv, hv := reflect.ValueOf(&st).Elem(), reflect.ValueOf(&sh).Elem()
	for name := range writtenOnce {
		if !sv.FieldByName(name).IsValid() {
			t.Errorf("the written-once list names Stats.%s, which does not exist", name)
		}
	}
	type counter struct {
		field, name string
		s, h        reflect.Value
	}
	var counters []counter
	for i := 0; i < sv.NumField(); i++ {
		f, s, h := sv.Type().Field(i), sv.Field(i), hv.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64, reflect.Int, reflect.Int64:
			counters = append(counters, counter{f.Name, f.Name, s, h})
		case reflect.Array:
			for j := 0; j < s.Len(); j++ {
				counters = append(counters, counter{f.Name, fmt.Sprintf("%s[%d]", f.Name, j), s.Index(j), h.Index(j)})
			}
		default:
			if _, ok := writtenOnce[f.Name]; !ok {
				t.Errorf("Stats.%s is a %s that addShard cannot sum and the written-once list does not name", f.Name, f.Type)
			}
		}
	}
	set := func(v reflect.Value, x uint64) {
		if v.CanUint() {
			v.SetUint(x)
		} else {
			v.SetInt(int64(x))
		}
	}
	get := func(v reflect.Value) uint64 {
		if v.CanUint() {
			return v.Uint()
		}
		return uint64(v.Int())
	}
	// Distinct values everywhere: a sum, a max and an untouched field each
	// give a different result, and a field merged into its neighbour shows.
	for i, c := range counters {
		set(c.s, uint64(1+i))
		set(c.h, uint64(1000+i))
	}
	st.addShard(&sh)
	for i, c := range counters {
		want, rule := uint64(1001+2*i), "summed"
		if _, ok := writtenOnce[c.field]; ok {
			want, rule = uint64(1+i), "left to the snapshot"
		} else if c.field == "MaxAttempts" {
			want, rule = uint64(1000+i), "merged by max"
		}
		if got := get(c.s); got != want {
			t.Errorf("Stats.%s = %d after addShard, want %d (%s)", c.name, got, want, rule)
		}
	}
}

func TestCommitRateAndThroughputHelpers(t *testing.T) {
	st := &Stats{Commits: 75, Aborts: 25, Ops: 100, Duration: 2_000_000}
	if st.CommitRate() != 75 {
		t.Errorf("CommitRate = %v", st.CommitRate())
	}
	if st.Throughput() != 50 {
		t.Errorf("Throughput = %v", st.Throughput())
	}
	empty := &Stats{}
	if empty.CommitRate() != 100 || empty.Throughput() != 0 {
		t.Error("zero-value stats helpers wrong")
	}
}

func TestBarrier(t *testing.T) {
	s := testSystem(t, nil)
	counter := s.Mem.Alloc(1, 0)
	var afterBarrier []uint64
	s.SpawnWorkers(func(rt *Runtime) {
		rt.Run(func(tx *Tx) { tx.Write(counter, tx.Read(counter)+1) })
		rt.Barrier()
		// After the barrier every core must observe all increments.
		afterBarrier = append(afterBarrier, s.Mem.ReadRaw(counter))
		rt.Barrier() // a second barrier must also work
	})
	s.RunToCompletion()
	for _, v := range afterBarrier {
		if v != uint64(s.NumAppCores()) {
			t.Fatalf("post-barrier observation = %d, want %d", v, s.NumAppCores())
		}
	}
}

func TestRunPanicsOnMisuse(t *testing.T) {
	s := testSystem(t, nil)
	s.SpawnWorkers(func(rt *Runtime) {})
	func() {
		defer func() { recover() }()
		s.Run(0)
		t.Error("Run(0) did not panic")
	}()
	s.RunToCompletion()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Run did not panic")
			}
		}()
		s.RunToCompletion()
	}()
}

func TestSpawnWorkersTwicePanics(t *testing.T) {
	s := testSystem(t, nil)
	s.SpawnWorkers(func(rt *Runtime) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.SpawnWorkers(func(rt *Runtime) {})
}

func TestUserPanicPropagates(t *testing.T) {
	s := testSystem(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("application panic swallowed by runtime")
		}
		// The kernel is now poisoned; that is fine for a crashed test.
	}()
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() == 0 {
			rt.Run(func(tx *Tx) { panic("app bug") })
		}
	})
	s.RunToCompletion()
}

func TestStatsStringsAndEnums(t *testing.T) {
	if Dedicated.String() != "dedicated" || Multitask.String() != "multitask" {
		t.Error("Deployment.String")
	}
	if Lazy.String() != "lazy" || Eager.String() != "eager" {
		t.Error("AcquireMode.String")
	}
	if Normal.String() != "normal" || ElasticEarly.String() != "elastic-early" || ElasticRead.String() != "elastic-read" {
		t.Error("TxKind.String")
	}
}

func TestNodeForStableAndInRange(t *testing.T) {
	s := testSystem(t, nil)
	for a := mem.Addr(0); a < 1000; a++ {
		n1, n2 := s.dir.Owner(a), s.dir.Owner(a)
		if n1 != n2 {
			t.Fatal("Owner not deterministic")
		}
		if n1 < 0 || n1 >= len(s.nodes) {
			t.Fatalf("Owner out of range: %d", n1)
		}
	}
}
