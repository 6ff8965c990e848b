package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestAuditPassesOnConflictHeavyRun(t *testing.T) {
	for _, p := range []cm.Policy{cm.Wholly, cm.FairCM, cm.NoCM} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			accounts := 8
			if !p.StarvationFree() {
				accounts = 48
			}
			s := testSystem(t, func(c *Config) { c.Policy = p })
			s.EnableAudit()
			base := s.Mem.Alloc(accounts, 0)
			initial := make(map[mem.Addr]uint64)
			for i := 0; i < accounts; i++ {
				s.Mem.WriteRaw(base+mem.Addr(i), 100)
				initial[base+mem.Addr(i)] = 100
			}
			s.SpawnWorkers(func(rt *Runtime) {
				r := rt.Rand()
				for i := 0; i < 40; i++ {
					if i%7 == 0 {
						rt.Run(func(tx *Tx) { // read-only scan
							for a := 0; a < accounts; a++ {
								tx.Read(base + mem.Addr(a))
							}
						})
						continue
					}
					from := r.Intn(accounts)
					to := (from + 1 + r.Intn(accounts-1)) % accounts
					rt.Run(func(tx *Tx) {
						f := tx.Read(base + mem.Addr(from))
						tv := tx.Read(base + mem.Addr(to))
						tx.Write(base+mem.Addr(from), f-1)
						tx.Write(base+mem.Addr(to), tv+1)
					})
				}
			})
			st := s.RunToCompletion()
			if s.AuditedCommits() == 0 {
				t.Fatal("no commits recorded")
			}
			if err := s.CheckAudit(initial); err != nil {
				t.Fatalf("serializability violated: %v", err)
			}
			// The audited history must include requests resent past an
			// ended winner and waits for a named one (NoCM's NACKs name
			// nobody), or the audit says nothing about those rules.
			if p.StarvationFree() && (st.EndedResends == 0 || st.WinnerWaits == 0) {
				t.Errorf("%d ended-winner resends, %d winner waits; want both > 0", st.EndedResends, st.WinnerWaits)
			}
			// Every resend past an ended winner follows a read of the
			// winner's status register, and every wait ends at one.
			if st.WinnerChecks < st.EndedResends || st.WinnerPolls < st.WinnerWaits {
				t.Errorf("%d winner checks for %d resends, %d winner polls for %d waits; want at least one read each",
					st.WinnerChecks, st.EndedResends, st.WinnerPolls, st.WinnerWaits)
			}
			// And most releases must ride a lock request to their own
			// node, or the audit says nothing about the per-node carry.
			if st.CarriedReleases <= st.ReleaseMsgs {
				t.Errorf("%d releases carried, %d sent on their own; want more carried", st.CarriedReleases, st.ReleaseMsgs)
			}
			t.Logf("%d ended-winner resends (%d winner checks), %d winner waits (%d polls), %d/%d releases carried/alone",
				st.EndedResends, st.WinnerChecks, st.WinnerWaits, st.WinnerPolls, st.CarriedReleases, st.ReleaseMsgs)
		})
	}
}

func TestAuditCatchesFabricatedViolation(t *testing.T) {
	// Sanity: the checker is not vacuous — a hand-built record whose second
	// commit read a value the first had overwritten must be flagged.
	s := testSystem(t, nil)
	s.EnableAudit()
	app0, app1 := trace.NewRecorder(0, 16), trace.NewRecorder(1, 16)
	app0.Emit(1, trace.KAttemptStart, 1, 1, uint64(Normal), 0)
	app0.Emit(5, trace.KWrite, 1, 100, 5, 1)
	app0.Emit(10, trace.KCommit, 1, 1, 10, 1)
	app1.Emit(12, trace.KAttemptStart, 2, 1, uint64(Normal), 0)
	app1.Emit(15, trace.KRead, 2, 100, 4, trace.ReadWord(trace.HoldRead, 1)) // stale read
	app1.Emit(20, trace.KCommit, 2, 1, 20, 2)
	tr := trace.New()
	tr.Add(app0, "app0")
	tr.Add(app1, "app1")
	tr.Finish()
	s.traceOut = tr
	err := s.CheckAudit(nil)
	if err == nil {
		t.Fatal("checker accepted an inconsistent history")
	}
	v, ok := err.(*AuditViolation)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if v.Addr != 100 || v.Got != 4 || v.Want != 5 {
		t.Fatalf("violation details: %+v", v)
	}
	if v.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestAuditFailsOnWrappedLane: the audit never skips. A run whose
// application lane wrapped its ring fails the check with the count it lost.
func TestAuditFailsOnWrappedLane(t *testing.T) {
	defer func(n int) { auditLaneEvents = n }(auditLaneEvents)
	auditLaneEvents = 64
	s := testSystem(t, nil)
	s.EnableAudit()
	a := s.Mem.Alloc(4, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		for range 20 {
			rt.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
		}
	})
	s.RunToCompletion()
	var dropped uint64 // by the application lanes, the ones the check reads
	for _, rt := range s.runtimes {
		dropped += s.Trace().LaneDropped[appActor(rt.core)]
	}
	if dropped == 0 {
		t.Fatal("no application lane wrapped; the run must outgrow its ring")
	}
	err := s.CheckAudit(nil)
	if err == nil {
		t.Fatal("the check passed a record with dropped events")
	}
	if want := fmt.Sprintf("dropped %d events", dropped); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not count the %d dropped events", err, dropped)
	}
}

// TestAuditRecordsValues: one hand-checked transaction's record, under both
// protocols. It reads a word and a two-word object and writes both; its
// KReads carry the values read and its KWrites the values written, a
// two-word object's as trace.ValueWord of its words.
func TestAuditRecordsValues(t *testing.T) {
	pair := FuncCodec(2, func(v [2]uint64, d []uint64) { copy(d, v[:]) },
		func(s []uint64) [2]uint64 { return [2]uint64{s[0], s[1]} })
	for _, proto := range []Protocol{ProtocolVisible, ProtocolTL2} {
		t.Run(proto.String(), func(t *testing.T) {
			s := testSystem(t, func(c *Config) { c.Protocol = proto })
			s.EnableAudit()
			w := NewTVar(s, Uint64Codec(), 7)
			p := NewTVar(s, pair, [2]uint64{1, 2})
			s.SpawnWorkers(func(rt *Runtime) {
				if rt.AppIndex() != 0 {
					return
				}
				rt.Run(func(tx *Tx) {
					v, q := w.Get(tx), p.Get(tx)
					w.Set(tx, v+2)
					p.Set(tx, [2]uint64{q[0] + 2, q[1] + 2})
				})
			})
			s.RunToCompletion()
			initial := map[mem.Addr]uint64{w.Addr(): 7, p.Addr(): 1, p.Addr() + 1: 2}
			if err := s.CheckAudit(initial); err != nil {
				t.Fatal(err)
			}
			if n := s.AuditedCommits(); n != 1 {
				t.Fatalf("%d audited commits, want 1", n)
			}
			hold := trace.HoldRead
			if proto == ProtocolTL2 {
				hold = trace.HoldInvisible
			}
			type access struct {
				kind        trace.Kind
				key, val, c uint64
			}
			want := []access{
				{trace.KRead, uint64(w.Addr()), 7, trace.ReadWord(hold, 1)},
				{trace.KRead, uint64(p.Addr()), trace.ValueWord([]uint64{1, 2}), trace.ReadWord(hold, 2)},
				{trace.KWrite, uint64(w.Addr()), 9, 1},
				{trace.KWrite, uint64(p.Addr()), trace.ValueWord([]uint64{3, 4}), 2},
			}
			var got []access
			var start, commit trace.Event
			for _, e := range s.Trace().Events {
				switch e.Kind {
				case trace.KRead, trace.KWrite:
					got = append(got, access{e.Kind, e.A, e.B, e.C})
				case trace.KAttemptStart:
					start = e
				case trace.KCommit:
					commit = e
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("accesses recorded %+v, want %+v", got, want)
			}
			if TxKind(start.B) != Normal || commit.B == 0 || commit.C == 0 {
				t.Fatalf("attempt start %+v, commit %+v: want kind Normal, an instant and a sequence", start, commit)
			}
		})
	}
}

func TestAuditElasticWritesParticipateReadsExempt(t *testing.T) {
	s := testSystem(t, nil)
	s.EnableAudit()
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunKind(ElasticRead, func(tx *Tx) {
			tx.Write(a, tx.Read(a)+1)
		})
		rt.Run(func(tx *Tx) {
			if got := tx.Read(a); got != 1 {
				t.Errorf("normal tx read %d, want 1", got)
			}
		})
	})
	s.RunToCompletion()
	if err := s.CheckAudit(nil); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if s.AuditedCommits() != 2 {
		t.Fatalf("recorded %d commits, want 2", s.AuditedCommits())
	}
}

func TestCheckAuditWithoutEnableErrors(t *testing.T) {
	s := testSystem(t, nil)
	if err := s.CheckAudit(nil); err == nil {
		t.Fatal("CheckAudit without EnableAudit should error")
	}
}

// TestEnableAuditRequiresSim: the replay orders commits by port.Time, one
// global clock only under the sim kernel. Live has no such order, and on net
// every rank would replay its own clock, so EnableAudit refuses both. The
// systems are raw-only (no DTM node), so a host that never starts leaves no
// goroutine behind.
func TestEnableAuditRequiresSim(t *testing.T) {
	for _, cfg := range []Config{
		{Backend: BackendLive, ServiceCores: -1},
		{Backend: BackendNet, ServiceCores: -1, Net: &NetConfig{Ranks: 2, Addrs: []string{"unix:a", "unix:b"}}},
	} {
		t.Run(cfg.Backend.String(), func(t *testing.T) {
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("EnableAudit accepted a %v system", cfg.Backend)
				}
			}()
			s.EnableAudit()
		})
	}
}

func TestAuditReadOnlySerializesAtLastRead(t *testing.T) {
	// A long-running read-only transaction overlapping many writers must
	// still audit clean because it serializes at its last read.
	s := testSystem(t, func(c *Config) { c.Policy = cm.FairCM })
	s.EnableAudit()
	pair := s.Mem.Alloc(2, 0)
	initial := map[mem.Addr]uint64{}
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() == 0 {
			for i := 0; i < 20; i++ {
				var x, y uint64
				rt.Run(func(tx *Tx) {
					x = tx.Read(pair)
					rt.Compute(50_000) // dawdle between the two reads
					y = tx.Read(pair + 1)
				})
				if x != y {
					t.Errorf("torn pair observed: %d != %d", x, y)
				}
			}
			return
		}
		for i := 0; i < 20; i++ {
			rt.Run(func(tx *Tx) {
				x := tx.Read(pair)
				y := tx.Read(pair + 1)
				tx.Write(pair, x+1)
				tx.Write(pair+1, y+1)
			})
		}
	})
	s.RunToCompletion()
	if err := s.CheckAudit(initial); err != nil {
		t.Fatalf("audit: %v", err)
	}
}
