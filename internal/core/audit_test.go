package core

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
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
			t.Logf("%d ended-winner resends, %d winner waits", st.EndedResends, st.WinnerWaits)
		})
	}
}

func TestAuditCatchesFabricatedViolation(t *testing.T) {
	// Sanity: the checker is not vacuous — a hand-planted inconsistent
	// record must be flagged.
	s := testSystem(t, nil)
	s.EnableAudit()
	s.audit.records = append(s.audit.records,
		auditRecord{core: 0, txID: 1, strict: true, commit: 10, seq: 1,
			writes: []auditAccess{{base: 100, vals: []uint64{5}}}},
		auditRecord{core: 1, txID: 2, strict: true, commit: 20, seq: 2,
			reads: []auditAccess{{base: 100, vals: []uint64{4}}}}, // stale read
	)
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
