package core

import (
	"slices"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestEarlyReleaseDropsLocksAndSkipsCommitRelease(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(4, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunKind(ElasticEarly, func(tx *Tx) {
			tx.Read(a)
			tx.Read(a + 1)
			if tx.ReadSetSize() != 2 {
				t.Errorf("read set = %d", tx.ReadSetSize())
			}
			tx.EarlyRelease(a)
			if tx.ReadSetSize() != 1 {
				t.Errorf("read set after early release = %d", tx.ReadSetSize())
			}
			// Releasing something not in the read set is a no-op.
			tx.EarlyRelease(a + 3)
		})
	})
	st := s.RunToCompletion()
	if st.EarlyReleases != 1 {
		t.Fatalf("EarlyReleases = %d, want 1", st.EarlyReleases)
	}
}

// TestEarlyReleaseThenRereadRecordsOnce: an object read again after its early
// release is back in the read set once — counted once and released once by
// the commit, like any other read; the record holds each of its reads.
func TestEarlyReleaseThenRereadRecordsOnce(t *testing.T) {
	s := testSystem(t, nil)
	s.EnableAudit()
	a := s.Mem.Alloc(2, 0)
	var released []mem.Addr // read locks in release messages sent since the body ended
	releaseSent = func(_ int, msg *relLocks) { released = append(released, msg.ReadAddrs...) }
	t.Cleanup(func() { releaseSent = nil })
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunKind(ElasticEarly, func(tx *Tx) {
			tx.Read(a)
			tx.EarlyRelease(a)
			tx.Read(a)
			tx.Read(a + 1)
			if tx.ReadSetSize() != 2 {
				t.Errorf("read set = %d, want 2", tx.ReadSetSize())
			}
			released = released[:0] // what follows is the commit's release burst
		})
	})
	s.RunToCompletion()
	if n := s.AuditedCommits(); n != 1 {
		t.Fatalf("audited %d commits, want 1", n)
	}
	var recorded []mem.Addr // one KRead per read-set entry the attempt made
	for _, e := range s.Trace().Events {
		if e.Kind == trace.KRead {
			recorded = append(recorded, mem.Addr(e.A))
		}
	}
	if want := []mem.Addr{a, a, a + 1}; !slices.Equal(recorded, want) {
		t.Errorf("recorded reads %v, want %v", recorded, want)
	}
	slices.Sort(released)
	if want := []mem.Addr{a, a + 1}; !slices.Equal(released, want) {
		t.Errorf("commit released read locks %v, want %v", released, want)
	}
}

func TestEarlyReleasePanicsOutsideElasticEarly(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("EarlyRelease on a normal transaction did not panic")
		}
	}()
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) {
			tx.Read(a)
			tx.EarlyRelease(a)
		})
	})
	s.RunToCompletion()
}

func TestElasticEarlyAvoidsWARAbort(t *testing.T) {
	// Core 0 read-locks a then releases it early; core 1 then write-locks
	// a without conflicting. With a Normal transaction the same schedule
	// produces a WAR conflict.
	for _, kind := range []TxKind{ElasticEarly, Normal} {
		s := testSystem(t, func(c *Config) { c.Policy = cm.NoCM })
		a := s.Mem.Alloc(2, 0)
		s.SpawnWorkers(func(rt *Runtime) {
			switch rt.AppIndex() {
			case 0:
				rt.RunKind(kind, func(tx *Tx) {
					tx.Read(a)
					if kind == ElasticEarly {
						tx.EarlyRelease(a)
					}
					tx.Read(a + 1)
					// Park long enough for core 1 to try write-locking a.
					rt.Compute(500_000)
				})
			case 1:
				rt.Compute(100_000) // let core 0 take its locks first
				rt.Run(func(tx *Tx) {
					tx.Write(a, 7)
				})
			}
		})
		st := s.RunToCompletion()
		if kind == ElasticEarly && st.AbortsByKind[cm.WAR] != 0 {
			t.Errorf("elastic-early still caused %d WAR aborts", st.AbortsByKind[cm.WAR])
		}
		if kind == Normal && st.AbortsByKind[cm.WAR] == 0 {
			t.Errorf("normal mode should have hit a WAR conflict in this schedule")
		}
	}
}

func TestElasticReadRepeatedReadServedFromWindow(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(2, 0)
	s.Mem.WriteRaw(a, 5)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunKind(ElasticRead, func(tx *Tx) {
			v1 := tx.ReadN(a, 2)
			v2 := tx.ReadN(a, 2) // same object: served from the window
			if v1[0] != v2[0] {
				t.Errorf("window re-read changed value: %v vs %v", v1, v2)
			}
		})
	})
	st := s.RunToCompletion()
	if st.ReadLockReqs != 0 {
		t.Fatalf("elastic-read sent %d read-lock messages", st.ReadLockReqs)
	}
}

func TestElasticReadWriteBackStillLocksWrites(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.RunKind(ElasticRead, func(tx *Tx) {
			v := tx.Read(a)
			tx.Write(a, v+1)
		})
	})
	st := s.RunToCompletion()
	if st.WriteLockReqs == 0 {
		t.Fatal("elastic-read commit acquired no write locks")
	}
	if got := s.Mem.ReadRaw(a); got != 1 {
		t.Fatalf("write-back lost: %d", got)
	}
}

func TestOffsetGreedySystemRun(t *testing.T) {
	st := runMiniBankN(t, func(c *Config) { c.Policy = cm.OffsetGreedy }, 40, 16)
	if st.Commits == 0 {
		t.Fatal("no commits under offset-greedy")
	}
	if st.Revocations == 0 {
		t.Fatal("offset-greedy never aborted an enemy (priorities unused?)")
	}
}

func TestReadOnlyCommitSendsNoWriteLocks(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(8, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) {
			for i := 0; i < 8; i++ {
				tx.Read(a + mem.Addr(i))
			}
		})
	})
	st := s.RunToCompletion()
	if st.WriteLockReqs != 0 {
		t.Fatalf("read-only tx sent %d write-lock requests", st.WriteLockReqs)
	}
	if st.ReleaseMsgs == 0 {
		t.Fatal("read locks were never released")
	}
	if st.Commits != 1 {
		t.Fatalf("commits = %d", st.Commits)
	}
}

func TestMessageByteAccounting(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		rt.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
	})
	st := s.RunToCompletion()
	if st.Msgs == 0 || st.MsgBytes == 0 {
		t.Fatalf("message accounting empty: %+v", st)
	}
	if st.MsgBytes < st.Msgs*8 {
		t.Fatalf("bytes (%d) below plausible floor for %d messages", st.MsgBytes, st.Msgs)
	}
	if st.Responses != st.ReadLockReqs+st.WriteLockReqs {
		t.Fatalf("responses %d != requests %d", st.Responses, st.ReadLockReqs+st.WriteLockReqs)
	}
}

func TestMultitaskServesWhileComputing(t *testing.T) {
	// Core 1 (multitask) performs a long local computation; core 0's
	// request to the node hosted on core 1 must still be answered — after
	// the computation finishes (the Figure 2 waiting effect), but before
	// the system ends.
	s := testSystem(t, func(c *Config) { c.Deployment = Multitask; c.TotalCores = 2 })
	// Find an address whose responsible node is core 1's.
	var addr mem.Addr
	for a := mem.Addr(1); ; a++ {
		if s.dir.Owner(a) == 1 {
			addr = a
			break
		}
	}
	var served bool
	s.SpawnWorkers(func(rt *Runtime) {
		switch rt.AppIndex() {
		case 0:
			rt.Compute(10_000)
			rt.Run(func(tx *Tx) { tx.Read(addr) })
			served = true
		case 1:
			rt.Compute(2_000_000) // 2ms busy loop before any yield
		}
	})
	s.RunToCompletion()
	if !served {
		t.Fatal("request to a busy multitask core was never served")
	}
}

func TestZombieReadDetectedAfterRemoteAbort(t *testing.T) {
	// A transaction whose status register is flipped to aborted must
	// unwind at its next wrapper call, releasing its locks.
	s := testSystem(t, nil)
	a := s.Mem.Alloc(2, 0)
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		first := true
		rt.Run(func(tx *Tx) {
			tx.Read(a)
			if first {
				first = false
				// Simulate a remote CM abort mid-transaction.
				s.Regs.SetStatusLocal(rt.Core(), tx.ID(), mem.TxAborted)
			}
			tx.Read(a + 1) // must panic-abort on the first attempt
		})
	})
	st := s.RunToCompletion()
	if st.Aborts != 1 || st.Commits != 1 {
		t.Fatalf("aborts=%d commits=%d, want 1/1", st.Aborts, st.Commits)
	}
}

func TestRawOnlySystemRejectsWorkers(t *testing.T) {
	s, err := NewSystem(Config{TotalCores: 4, ServiceCores: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAppCores() != 4 || s.NumServiceCores() != 0 {
		t.Fatalf("raw-only partition: %d app / %d svc", s.NumAppCores(), s.NumServiceCores())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnWorkers on raw-only system did not panic")
		}
	}()
	s.SpawnWorkers(func(rt *Runtime) {})
}
