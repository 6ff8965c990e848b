package core

import (
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/placement"
)

func tl2System(t *testing.T, mut func(*Config)) *System {
	t.Helper()
	return testSystem(t, func(c *Config) {
		c.Protocol = ProtocolTL2
		if mut != nil {
			mut(c)
		}
	})
}

func TestParseProtocol(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Protocol
		ok   bool
	}{
		{"", ProtocolVisible, true},
		{"visible", ProtocolVisible, true},
		{"tl2", ProtocolTL2, true},
		{"TL2", ProtocolVisible, false},
		{"eager", ProtocolVisible, false},
	} {
		got, err := ParseProtocol(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseProtocol(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ProtocolTL2.String() != "tl2" || ProtocolVisible.String() != "visible" {
		t.Error("protocol names wrong")
	}
}

// TestTL2PureReadZeroMessages is the tentpole's core claim at its extreme: a
// workload that only reads sends NOTHING — no read-lock requests, no commit
// traffic, not a single wire message — yet commits consistent transactions.
func TestTL2PureReadZeroMessages(t *testing.T) {
	s := tl2System(t, nil)
	pool := s.Mem.Alloc(64, 0)
	for i := 0; i < 64; i++ {
		s.Mem.WriteRaw(pool+mem.Addr(i), uint64(i))
	}
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < 25; i++ {
			rt.RunKind(ReadOnly, func(tx *Tx) {
				a := mem.Addr(r.Intn(64))
				b := mem.Addr(r.Intn(64))
				if tx.Read(pool+a) != uint64(a) || tx.Read(pool+b) != uint64(b) {
					t.Error("read-only transaction saw a wrong value")
				}
			})
			rt.AddOps(1)
		}
	})
	st := s.RunToCompletion()
	if st.Commits == 0 {
		t.Fatal("no commits")
	}
	if st.Msgs != 0 || st.WireMsgs != 0 || st.ReadLockReqs != 0 || st.WriteLockReqs != 0 {
		t.Fatalf("pure-read tl2 run sent traffic: msgs=%d wire=%d rdlk=%d wrlk=%d",
			st.Msgs, st.WireMsgs, st.ReadLockReqs, st.WriteLockReqs)
	}
	if st.LocalReads == 0 {
		t.Fatal("no local reads counted")
	}
	if st.ClockAdvances != 0 {
		t.Fatalf("pure readers ticked the clock %d times", st.ClockAdvances)
	}
}

// tl2TransferWorker is a contended bank: transfers between accounts drawn
// from a small pool, plus occasional full balance scans, all under TL2.
func tl2TransferWorker(pool mem.Addr, accounts, ops int) func(rt *Runtime) {
	return func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < ops; i++ {
			if r.Intn(100) < 20 {
				var sum uint64
				rt.RunKind(ReadOnly, func(tx *Tx) {
					sum = 0
					for a := 0; a < accounts; a++ {
						sum += tx.Read(pool + mem.Addr(a))
					}
				})
				if sum != uint64(accounts)*100 {
					panic("balance scan saw non-conserved total")
				}
			} else {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				rt.Run(func(tx *Tx) {
					f := tx.Read(pool + mem.Addr(from))
					tv := tx.Read(pool + mem.Addr(to))
					tx.Write(pool+mem.Addr(from), f-1)
					tx.Write(pool+mem.Addr(to), tv+1)
				})
			}
			rt.AddOps(1)
		}
	}
}

// TestTL2BankAuditSerializable runs the contended bank under TL2 across
// several seeds with the serializability audit on: every committed
// transaction — update or pure read, any kind — must fit the serial order
// given by the recorded TL2 serialization instants.
func TestTL2BankAuditSerializable(t *testing.T) {
	const accounts = 24
	for _, seed := range []uint64{1, 2, 3, 9} {
		s := tl2System(t, func(c *Config) { c.Seed = seed })
		s.EnableAudit()
		pool := s.Mem.Alloc(accounts, 0)
		initial := make(map[mem.Addr]uint64)
		for i := 0; i < accounts; i++ {
			s.Mem.WriteRaw(pool+mem.Addr(i), 100)
			initial[pool+mem.Addr(i)] = 100
		}
		s.SpawnWorkers(tl2TransferWorker(pool, accounts, 30))
		st := s.RunToCompletion()
		if st.Commits == 0 {
			t.Fatalf("seed %d: no commits", seed)
		}
		if err := s.CheckAudit(initial); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var sum uint64
		for i := 0; i < accounts; i++ {
			sum += s.Mem.ReadRaw(pool + mem.Addr(i))
		}
		if sum != accounts*100 {
			t.Fatalf("seed %d: money not conserved: %d", seed, sum)
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			t.Fatalf("seed %d: %d locks leaked", seed, leaked)
		}
		if st.ClockAdvances == 0 || st.LocalReads == 0 {
			t.Fatalf("seed %d: tl2 counters flat: ticks=%d localreads=%d",
				seed, st.ClockAdvances, st.LocalReads)
		}
		if st.Revalidations == 0 {
			t.Fatalf("seed %d: update commits revalidated nothing", seed)
		}
	}
}

// TestTL2AllKindsStrictAudit runs every transaction kind under TL2 — where
// each degenerates to the same invisible-read semantics and the audit
// checks reads strictly for all of them, elastic kinds included.
func TestTL2AllKindsStrictAudit(t *testing.T) {
	for _, kind := range []TxKind{Normal, ElasticEarly, ElasticRead, ReadOnly} {
		t.Run(kind.String(), func(t *testing.T) {
			s := tl2System(t, nil)
			s.EnableAudit()
			pool := s.Mem.Alloc(16, 0)
			initial := make(map[mem.Addr]uint64)
			for i := 0; i < 16; i++ {
				s.Mem.WriteRaw(pool+mem.Addr(i), 50)
				initial[pool+mem.Addr(i)] = 50
			}
			kind := kind
			s.SpawnWorkers(func(rt *Runtime) {
				r := rt.Rand()
				for i := 0; i < 20; i++ {
					rt.RunKind(kind, func(tx *Tx) {
						a := pool + mem.Addr(r.Intn(16))
						b := pool + mem.Addr(r.Intn(16))
						va, vb := tx.Read(a), tx.Read(b)
						if kind == ElasticEarly {
							tx.EarlyRelease(a) // must be a no-op under tl2
						}
						if kind != ReadOnly && a != b {
							tx.Write(a, va-1)
							tx.Write(b, vb+1)
						}
					})
					rt.AddOps(1)
				}
			})
			st := s.RunToCompletion()
			if st.Commits == 0 {
				t.Fatal("no commits")
			}
			if err := s.CheckAudit(initial); err != nil {
				t.Fatal(err)
			}
			if st.EarlyReleases != 0 {
				t.Fatalf("EarlyRelease sent %d messages under tl2", st.EarlyReleases)
			}
			if leaked := s.LockedAddrs(); leaked != 0 {
				t.Fatalf("%d locks leaked", leaked)
			}
		})
	}
}

// TestTL2ConfigMatrix drives TL2 through the acquisition/deployment variants
// it must compose with: eager acquisition and multitask deployment.
// Conservation plus audit in each cell.
func TestTL2ConfigMatrix(t *testing.T) {
	muts := map[string]func(*Config){
		"eager":     func(c *Config) { c.Acquire = Eager },
		"multitask": func(c *Config) { c.Deployment = Multitask; c.TotalCores = 4 },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			const accounts = 16
			s := tl2System(t, mut)
			s.EnableAudit()
			pool := s.Mem.Alloc(accounts, 0)
			initial := make(map[mem.Addr]uint64)
			for i := 0; i < accounts; i++ {
				s.Mem.WriteRaw(pool+mem.Addr(i), 100)
				initial[pool+mem.Addr(i)] = 100
			}
			s.SpawnWorkers(tl2TransferWorker(pool, accounts, 20))
			st := s.RunToCompletion()
			if st.Commits == 0 {
				t.Fatal("no commits")
			}
			if err := s.CheckAudit(initial); err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for i := 0; i < accounts; i++ {
				sum += s.Mem.ReadRaw(pool + mem.Addr(i))
			}
			if sum != accounts*100 {
				t.Fatalf("money not conserved: %d", sum)
			}
			if leaked := s.LockedAddrs(); leaked != 0 {
				t.Fatalf("%d locks leaked", leaked)
			}
		})
	}
}

// TestTL2Determinism: same seed, same schedule, same counters — the TL2
// paths (snapshot, doomed aborts, revalidation) must stay deterministic on
// the sim backend.
func TestTL2Determinism(t *testing.T) {
	run := func() (uint64, Stats) {
		s := tl2System(t, func(c *Config) { c.Seed = 21 })
		pool := s.Mem.Alloc(16, 0)
		for i := 0; i < 16; i++ {
			s.Mem.WriteRaw(pool+mem.Addr(i), 100)
		}
		s.K.EnableTraceHash()
		s.SpawnWorkers(tl2TransferWorker(pool, 16, 25))
		st := s.RunToCompletion()
		return s.K.TraceHash(), *st
	}
	h1, st1 := run()
	h2, st2 := run()
	if h1 != h2 {
		t.Fatalf("trace hashes differ: %#x != %#x", h1, h2)
	}
	if st1.Commits != st2.Commits || st1.Aborts != st2.Aborts ||
		st1.Msgs != st2.Msgs || st1.LocalReads != st2.LocalReads ||
		st1.DoomedReads != st2.DoomedReads || st1.ClockAdvances != st2.ClockAdvances ||
		st1.Revalidations != st2.Revalidations {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
}

// TestTL2WireReductionVsVisible is the unit-level version of the abltl2
// gate: on a read-mostly workload, TL2 must send dramatically fewer wire
// messages per op than the visible protocol.
func TestTL2WireReductionVsVisible(t *testing.T) {
	run := func(proto Protocol) *Stats {
		s := testSystem(t, func(c *Config) { c.Protocol = proto })
		pool := s.Mem.Alloc(32, 0)
		for i := 0; i < 32; i++ {
			s.Mem.WriteRaw(pool+mem.Addr(i), 100)
		}
		s.SpawnWorkers(func(rt *Runtime) {
			r := rt.Rand()
			for i := 0; i < 30; i++ {
				if r.Intn(100) < 10 {
					from := r.Intn(32)
					to := (from + 1 + r.Intn(31)) % 32
					rt.Run(func(tx *Tx) {
						f := tx.Read(pool + mem.Addr(from))
						tv := tx.Read(pool + mem.Addr(to))
						tx.Write(pool+mem.Addr(from), f-1)
						tx.Write(pool+mem.Addr(to), tv+1)
					})
				} else {
					rt.RunKind(ReadOnly, func(tx *Tx) {
						for j := 0; j < 8; j++ {
							tx.Read(pool + mem.Addr(r.Intn(32)))
						}
					})
				}
				rt.AddOps(1)
			}
		})
		return s.RunToCompletion()
	}
	vis, tl2 := run(ProtocolVisible), run(ProtocolTL2)
	if vis.Ops == 0 || tl2.Ops == 0 {
		t.Fatal("no ops")
	}
	visWire := float64(vis.WireMsgs) / float64(vis.Ops)
	tl2Wire := float64(tl2.WireMsgs) / float64(tl2.Ops)
	if tl2Wire > 0.4*visWire {
		t.Fatalf("tl2 wire/op %.2f vs visible %.2f: reduction below 60%%", tl2Wire, visWire)
	}
}

// TestTL2IrrevocableUnsupported: RunIrrevocable must refuse loudly under
// tl2 instead of silently racing invisible readers.
func TestTL2IrrevocableUnsupported(t *testing.T) {
	s := tl2System(t, nil)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		defer func() {
			r := recover()
			if r == nil {
				t.Error("RunIrrevocable did not panic under tl2")
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "visible protocol") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		rt.RunIrrevocable(func(ir *Irrevocable) {})
	})
	s.RunToCompletion()
}

// TestStaleNackHintSteersRetry pins the NACK piggyback satellite with a
// deterministic migration: one stripe is frozen for a move; the first
// request to the old owner completes the empty handoff and NACKs with the
// new owner's identity, and the requester's retry follows the hint (counted
// in Stats.StaleNackHints) straight to the new owner — no directory
// re-resolution round.
func TestStaleNackHintSteersRetry(t *testing.T) {
	cfg := Config{
		Platform:         noc.SCC(0),
		Seed:             7,
		TotalCores:       4,
		ServiceCores:     2,
		Policy:           cm.FairCM,
		Placement:        placement.AdaptiveHier,
		RepartitionEpoch: 1 << 30, // no automatic rounds; the test drives the move
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
	if st.StaleNackHints == 0 {
		t.Fatal("the NACK carried no usable owner hint (or the requester ignored it)")
	}
	if st.StaleNackHints > st.StaleNacks {
		t.Fatalf("hints used (%d) exceed NACKs issued (%d)", st.StaleNackHints, st.StaleNacks)
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
