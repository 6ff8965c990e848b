package core

import (
	"fmt"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

// The rollback matrix: every way an attempt can die between its first read
// and its persist, in every configuration the protocol seam spans. Each row
// forces one abort on the first attempt of one transaction, deterministically
// (an injected foreign lock, a write behind the transaction's back, a status
// flip by a peer that watches the lock table), and checks what Tx.commit,
// Tx.rollback and abortCleanup owe the rest of the system: the status register
// reads Aborted, no write stripe keeps a version marker, OnAbort fires once,
// the retry commits, and every lock table drains.
//
// Phases, by where the attempt dies:
//
//	read           a first read is refused: a read-lock NACK (visible), a
//	               consecutive-read window mismatch (ElasticRead), a doomed
//	               read of a stripe newer than the snapshot (tl2, where the
//	               pair must never be observed torn)
//	partial-grant  the second of two write locks on different DTM nodes is
//	               NACKed after the first was granted (one scatter under
//	               lazy, two awaited requests under eager)
//	lost-cas       a contention manager aborts the transaction while it
//	               gathers its write locks, so Pending→Committing fails
//	validate       validation fails after the CAS: the ElasticRead window's
//	               final check, TL2's read-set revalidation (markers set)

type rollbackCell struct {
	proto  Protocol
	kind   TxKind
	acq    AcquireMode
	deploy Deployment
}

func (c rollbackCell) String() string {
	return fmt.Sprintf("%v/%v/%v/%v", c.proto, c.kind, c.acq, c.deploy)
}

// phases returns the phases that can occur in the cell.
func (c rollbackCell) phases() []string {
	ps := []string{"read"}
	if c.kind == ReadOnly {
		return ps
	}
	ps = append(ps, "partial-grant")
	if c.acq == Lazy {
		// Under eager acquisition the locks are held before commit begins;
		// the window between its abort check and the CAS is the commit cost,
		// which no peer can observe.
		ps = append(ps, "lost-cas")
	}
	if c.proto == ProtocolTL2 || c.kind == ElasticRead {
		ps = append(ps, "validate")
	}
	return ps
}

func TestRollbackMatrix(t *testing.T) {
	for _, proto := range []Protocol{ProtocolVisible, ProtocolTL2} {
		for _, kind := range []TxKind{Normal, ElasticRead, ElasticEarly, ReadOnly} {
			for _, acq := range []AcquireMode{Lazy, Eager} {
				for _, deploy := range []Deployment{Dedicated, Multitask} {
					c := rollbackCell{proto, kind, acq, deploy}
					for _, phase := range c.phases() {
						t.Run(c.String()+"/"+phase, func(t *testing.T) { runRollbackRow(t, c, phase) })
					}
				}
			}
		}
	}
}

// foreignCommit does to the stripes of addrs what a committer elsewhere
// would: markers up, a clock tick, each word incremented by its delta, the
// new version published.
func foreignCommit(s *System, rt *Runtime, addrs []mem.Addr, deltas []uint64) {
	keys := make([]mem.Addr, len(addrs))
	for i, a := range addrs {
		keys[i] = a
	}
	s.Mem.LockVersions(rt.Port(), rt.Core(), keys)
	wv := s.clock.Tick(rt.Core() + 1)
	for i, a := range addrs {
		s.Mem.WriteRaw(a, s.Mem.ReadRaw(a)+deltas[i])
	}
	s.Mem.PublishVersions(rt.Port(), rt.Core(), keys, wv)
}

func runRollbackRow(t *testing.T, c rollbackCell, phase string) {
	cfg := Config{
		Platform:   noc.SCC(0),
		Seed:       7,
		TotalCores: 4,
		Deployment: c.deploy,
		Policy:     cm.NoCM, // rejects the requester without touching the enemy
		Protocol:   c.proto,
		Acquire:    c.acq,
	}
	if c.deploy == Dedicated {
		cfg.ServiceCores = 2
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// x, y: the objects read (an invariant pair, x+y == 2000). w1, w2: the
	// objects written, on two DTM nodes, neither co-located with the two
	// cores that run code here (a multitasked core serves its node only
	// while it blocks; the peer of lost-cas computes instead).
	pool := s.Mem.Alloc(64, 0)
	x, y := pool, pool+1
	s.Mem.WriteRaw(x, 1000)
	s.Mem.WriteRaw(y, 1000)
	var w1, w2 mem.Addr
	for a := pool + 2; a < pool+64 && w2 == 0; a++ {
		switch n := s.dir.Owner(a); {
		case c.deploy == Multitask && n < 2:
		case w1 == 0:
			w1 = a
		case n != s.dir.Owner(w1):
			w2 = a
		}
	}
	if w2 == 0 {
		t.Fatal("no write pair spanning two DTM nodes in pool")
	}
	writes := c.kind != ReadOnly

	// The foreign lock of the NACK phases: a writer that never finishes
	// (its status register shows it Pending), so it wins every conflict.
	const enemyCore, enemyTx = 3, uint64(99)
	var poisoned mem.Addr
	switch {
	case phase == "read" && c.proto == ProtocolVisible && c.kind != ElasticRead:
		poisoned = x
	case phase == "partial-grant":
		poisoned = w2
	}
	poisonTable := s.nodes[s.dir.Owner(poisoned)].table
	if poisoned != 0 {
		poisonTable.SetWriter(poisoned, cm.Meta{Core: enemyCore, TxID: enemyTx})
		s.Regs.SetStatusLocal(enemyCore, enemyTx, mem.TxPending)
	}

	wantReason := trace.ReasonDoomedRead
	switch {
	case poisoned != 0:
		wantReason = trace.ReasonConflict
	case phase == "lost-cas":
		wantReason = trace.ReasonRevoked
	}

	var attempts, used, fired int
	var victim *Runtime
	body := func(rt *Runtime, tx *Tx) {
		attempts++
		first := attempts == 1
		if first {
			tx.OnAbort(func() {
				fired++
				if _, st := s.Regs.LoadStatusLocal(rt.Core()); st != mem.TxAborted {
					t.Errorf("status register reads %v in OnAbort, want aborted", st)
				}
				for _, w := range []mem.Addr{w1, w2} {
					if _, marked := s.Mem.LoadVersion(rt.Port(), rt.Core(), w); marked {
						t.Errorf("write stripe %#x keeps its version marker after the abort", uint64(w))
					}
					if got := s.Mem.ReadRaw(w); got != 0 {
						t.Errorf("mem[%#x] = %d: the aborted attempt persisted", uint64(w), got)
					}
				}
			})
		}
		switch phase {
		case "read":
			if first || poisoned != x { // the foreign lock on x stays: its retry reads y alone
				vx := tx.Read(x)
				if first && c.proto == ProtocolTL2 {
					// A committer moves 1 from x to y behind the reader's back.
					foreignCommit(s, rt, []mem.Addr{x, y}, []uint64{^uint64(0), 1})
				} else if first && poisoned == 0 {
					s.Mem.WriteRaw(x, vx-1)
					s.Mem.WriteRaw(y, s.Mem.ReadRaw(y)+1)
				}
				if vy := tx.Read(y); vx+vy != 2000 {
					t.Errorf("torn read: x=%d y=%d", vx, vy)
				}
			} else {
				tx.Read(y)
			}
			if writes {
				tx.Write(w1, 11)
			}
		case "partial-grant":
			tx.Write(w1, 11)
			if first {
				tx.Write(w2, 22) // rejected at its node; w1's lock is granted by then
			}
		case "lost-cas":
			tx.Write(w1, 11) // the peer flips our status once it sees the lock granted
		case "validate":
			vx := tx.Read(x)
			tx.Write(w1, 11)
			if first {
				if c.proto == ProtocolTL2 {
					foreignCommit(s, rt, []mem.Addr{x}, []uint64{0})
				} else {
					s.Mem.WriteRaw(x, vx+1)
				}
			}
		}
	}
	s.SpawnWorkers(func(rt *Runtime) {
		switch rt.AppIndex() {
		case 0:
			victim = rt
			used = rt.RunKind(c.kind, func(tx *Tx) { body(rt, tx) })
		case 1:
			if phase != "lost-cas" {
				return
			}
			table := s.nodes[s.dir.Owner(w1)].table
			for i := 0; i < 1_000_000; i++ {
				if c := table.ReadConflict(w1, cm.Meta{Core: -1}); c != nil { // the writer, foreign to every core
					m := c.Enemies[0]
					if swapped, _, _ := s.Regs.CASStatusObserveRaw(m.Core, m.TxID, mem.TxPending, mem.TxAborted); !swapped {
						t.Error("the lock holder was no longer Pending when its grant became visible")
					}
					return
				}
				rt.Compute(100)
			}
			t.Error("core 0 never write-locked w1")
		}
	})
	st := s.RunToCompletion()

	if used != 2 || fired != 1 {
		t.Fatalf("%d attempts, OnAbort fired %d times; want 2 and 1", used, fired)
	}
	if st.Commits != 1 || st.Aborts != 1 || st.AbortReasons[wantReason] != 1 {
		t.Fatalf("commits=%d aborts=%d reasons=%v, want 1/1 with reason %v", st.Commits, st.Aborts, st.AbortReasons, wantReason)
	}
	if _, state := s.Regs.LoadStatusLocal(victim.Core()); state != mem.TxCommitted {
		t.Errorf("status register reads %v after the retry, want committed", state)
	}
	if writes {
		if got := s.Mem.ReadRaw(w1); got != 11 {
			t.Errorf("mem[w1] = %d, want 11 (the retry committed)", got)
		}
		if got := s.Mem.ReadRaw(w2); got != 0 {
			t.Errorf("mem[w2] = %d, want 0 (only the aborted attempt wrote it)", got)
		}
	}
	if poisoned != 0 {
		// The only surviving lock is the injected one: what the failed
		// attempt had been granted went back with its abort.
		if n := s.LockedAddrs(); n != 1 {
			t.Errorf("%d addresses locked after the run, want only the injected lock", n)
		}
		if !poisonTable.ReleaseWrite(poisoned, enemyCore, enemyTx) {
			t.Error("injected lock vanished: the rollback released a foreign lock")
		}
	}
	if n := s.LockedAddrs(); n != 0 {
		t.Errorf("%d stale lock entries survive the rollback", n)
	}
	switch phase {
	case "read":
		if c.proto == ProtocolTL2 && st.DoomedReads != 1 {
			t.Errorf("DoomedReads = %d, want 1", st.DoomedReads)
		}
		if poisoned != 0 && st.AbortsByKind[cm.RAW] != 1 {
			t.Errorf("RAW aborts = %d, want 1", st.AbortsByKind[cm.RAW])
		}
	case "partial-grant":
		// Two requests on the first attempt, one on the retry; one awaited
		// gather per attempt under lazy, none under eager; and each attempt
		// ends with one release, to w1's node (w2's granted nothing): the
		// first attempt's rides the retry's request to w1's node, the
		// retry's leaves on its own when the worker exits.
		if st.AbortsByKind[cm.WAW] != 1 || st.WriteLockReqs != 3 || st.ReleaseMsgs != 1 || st.CarriedReleases != 1 {
			t.Errorf("WAW aborts = %d, WriteLockReqs = %d, releases = %d (+%d carried); want 1, 3 and 1 (+1 carried)",
				st.AbortsByKind[cm.WAW], st.WriteLockReqs, st.ReleaseMsgs, st.CarriedReleases)
		}
		if want := map[AcquireMode]uint64{Lazy: 2, Eager: 0}[c.acq]; st.CommitRoundTrips != want {
			t.Errorf("CommitRoundTrips = %d, want %d", st.CommitRoundTrips, want)
		}
	case "validate":
		if c.proto == ProtocolTL2 && st.Revalidations == 0 {
			t.Error("the commit never revalidated its read set")
		}
	}
}
