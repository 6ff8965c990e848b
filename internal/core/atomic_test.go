package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/noc"
)

// TestAbortDoesNotRetryAndReleasesLocks: a Tx.Abort runs the body exactly
// once, surfaces the error from Atomic, counts one user abort (and no
// conflict abort), and leaves no lock behind.
func TestAbortDoesNotRetryAndReleasesLocks(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(4, 0)
	errNo := errors.New("declined")
	runs := 0
	var got error
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		got = rt.Atomic(func(tx *Tx) error {
			runs++
			tx.Read(a)       // read lock
			tx.Write(a+1, 7) // buffered write (no eager lock)
			tx.Abort(errNo)
			t.Error("body continued past Abort")
			return nil
		})
	})
	st := s.RunToCompletion()

	if runs != 1 {
		t.Fatalf("body ran %d times, want 1 (user aborts must not retry)", runs)
	}
	if !errors.Is(got, errNo) {
		t.Fatalf("Atomic returned %v, want %v", got, errNo)
	}
	if st.UserAborts != 1 {
		t.Fatalf("UserAborts = %d, want 1", st.UserAborts)
	}
	if st.Commits != 0 || st.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d, want 0/0 (user abort is neither)", st.Commits, st.Aborts)
	}
	if n := s.LockedAddrs(); n != 0 {
		t.Fatalf("%d addresses still locked after the user abort", n)
	}
	if s.Mem.ReadRaw(a+1) != 0 {
		t.Fatal("aborted write persisted")
	}
}

// TestAbortNilUsesErrAborted: Abort(nil) surfaces ErrAborted.
func TestAbortNilUsesErrAborted(t *testing.T) {
	s := testSystem(t, nil)
	var got error
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		got = rt.Atomic(func(tx *Tx) error {
			tx.Abort(nil)
			return nil
		})
	})
	s.RunToCompletion()
	if !errors.Is(got, ErrAborted) {
		t.Fatalf("Atomic returned %v, want ErrAborted", got)
	}
}

// TestErrRetryBacksOffAndRetries: returning ErrRetry (or aborting with an
// error wrapping it) re-runs the body; the retries count as ordinary
// aborts, not user aborts.
func TestErrRetryBacksOffAndRetries(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		name := "plain"
		if wrapped {
			name = "wrapped"
		}
		t.Run(name, func(t *testing.T) {
			s := testSystem(t, nil)
			a := s.Mem.Alloc(1, 0)
			runs := 0
			var got error
			s.SpawnWorkers(func(rt *Runtime) {
				if rt.AppIndex() != 0 {
					return
				}
				got = rt.Atomic(func(tx *Tx) error {
					runs++
					v := tx.Read(a)
					if runs < 3 {
						if wrapped {
							return fmt.Errorf("not ready: %w", ErrRetry)
						}
						return ErrRetry
					}
					tx.Write(a, v+1)
					return nil
				})
			})
			st := s.RunToCompletion()

			if got != nil {
				t.Fatalf("Atomic returned %v after retries, want nil", got)
			}
			if runs != 3 {
				t.Fatalf("body ran %d times, want 3", runs)
			}
			if st.Commits != 1 || st.Aborts != 2 || st.UserAborts != 0 {
				t.Fatalf("commits=%d aborts=%d userAborts=%d, want 1/2/0",
					st.Commits, st.Aborts, st.UserAborts)
			}
			if s.Mem.ReadRaw(a) != 1 {
				t.Fatal("committed write lost")
			}
			if n := s.LockedAddrs(); n != 0 {
				t.Fatalf("%d addresses still locked", n)
			}
		})
	}
}

// TestRunReturnsAttemptCount pins the documented Run/RunKind contract: the
// return value is the attempt count — 1 for a first-try commit, 1 + the
// number of aborted attempts otherwise (asserted against the runtime's own
// abort counter, which guards the retry loop against off-by-one drift).
func TestRunReturnsAttemptCount(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	var uncontended, retried int
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		uncontended = rt.Run(func(tx *Tx) {
			tx.Write(a, tx.Read(a)+1)
		})
		// Force exactly two aborted attempts through the error path the
		// retry loop shares with conflict aborts.
		runs := 0
		retried, _ = rt.runLoop(Normal, 0, func(tx *Tx) error {
			runs++
			tx.Write(a, tx.Read(a)+1)
			if runs < 3 {
				return ErrRetry
			}
			return nil
		})
	})
	st := s.RunToCompletion()

	if uncontended != 1 {
		t.Fatalf("uncontended Run returned %d attempts, want 1", uncontended)
	}
	if retried != 3 {
		t.Fatalf("twice-aborted transaction returned %d attempts, want 3", retried)
	}
	if want := st.Aborts + uint64(st.Commits); uint64(uncontended+retried) != want {
		t.Fatalf("attempt counts %d+%d != commits+aborts %d", uncontended, retried, want)
	}
}

// TestOnCommitFiresExactlyOnce reuses the scatter-rollback scenario: the
// first attempt is rejected at its second DTM node (granted batches rolled
// back), the retry commits. OnCommit must fire exactly once — for the
// committed attempt only — and OnAbort exactly once, for the rolled-back
// attempt.
func TestOnCommitFiresExactlyOnce(t *testing.T) {
	cfg := Config{
		Platform:     noc.SCC(0),
		Seed:         7,
		TotalCores:   4,
		ServiceCores: 2,
		Policy:       cm.NoCM,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := s.Mem.Alloc(64, 0)
	a1, a2, node2 := findTwoNodeAddrs(t, s, pool, 64)
	// A foreign writer that is still running (Pending), so it wins.
	s.nodes[node2].table.SetWriter(a2, cm.Meta{Core: 0, TxID: 99})
	s.Regs.SetStatusLocal(0, 99, mem.TxPending)

	attempts, commitFires, abortFires := 0, 0, 0
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 1 {
			return
		}
		rt.Run(func(tx *Tx) {
			attempts++
			tx.OnCommit(func() { commitFires++ })
			tx.OnAbort(func() { abortFires++ })
			tx.Write(a1, 11)
			if attempts == 1 {
				tx.Write(a2, 22) // rejected at node2 on the first try
			}
		})
	})
	st := s.RunToCompletion()

	if st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d, want 1/1", st.Commits, st.Aborts)
	}
	if commitFires != 1 {
		t.Fatalf("OnCommit fired %d times for 1 committed transaction", commitFires)
	}
	if abortFires != 1 {
		t.Fatalf("OnAbort fired %d times for 1 aborted attempt", abortFires)
	}
}

// TestHooksUnderContention: across an arbitrary contended run, OnCommit
// fires exactly Commits times and OnAbort exactly Aborts times.
func TestHooksUnderContention(t *testing.T) {
	s := testSystem(t, func(cfg *Config) { cfg.Policy = cm.FairCM })
	a := s.Mem.Alloc(1, 0)
	commitFires, abortFires := 0, 0
	s.SpawnWorkers(func(rt *Runtime) {
		for i := 0; i < 20; i++ {
			rt.Run(func(tx *Tx) {
				tx.OnCommit(func() { commitFires++ })
				tx.OnAbort(func() { abortFires++ })
				tx.Write(a, tx.Read(a)+1)
			})
		}
	})
	st := s.RunToCompletion()
	if uint64(commitFires) != st.Commits {
		t.Fatalf("OnCommit fired %d times for %d commits", commitFires, st.Commits)
	}
	if uint64(abortFires) != st.Aborts {
		t.Fatalf("OnAbort fired %d times for %d aborts", abortFires, st.Aborts)
	}
	if s.Mem.ReadRaw(a) != st.Commits {
		t.Fatalf("counter %d != commits %d", s.Mem.ReadRaw(a), st.Commits)
	}
}

// TestReadOnlyScanNoWriteTraffic: a system running only declared read-only
// scans commits them without a single write-lock request or commit round
// trip, and counts them in ReadOnlyCommits.
func TestReadOnlyScanNoWriteTraffic(t *testing.T) {
	s := testSystem(t, nil)
	const words = 32
	arr := NewTArray(s, Uint64Codec(), words, 5)
	s.SpawnWorkers(func(rt *Runtime) {
		for i := 0; i < 5; i++ {
			var sum uint64
			attempts := rt.RunReadOnly(func(tx *Tx) {
				sum = 0
				for j := 0; j < words; j++ {
					sum += arr.Get(tx, j)
				}
			})
			if attempts < 1 {
				t.Errorf("RunReadOnly returned %d attempts", attempts)
			}
			if sum != 5*words {
				t.Errorf("scan read %d, want %d", sum, 5*words)
			}
			rt.AddOps(1)
		}
	})
	st := s.RunToCompletion()

	if st.Commits == 0 {
		t.Fatal("no commits")
	}
	if st.ReadOnlyCommits != st.Commits {
		t.Fatalf("ReadOnlyCommits = %d, want %d (every commit declared read-only)",
			st.ReadOnlyCommits, st.Commits)
	}
	if st.WriteLockReqs != 0 {
		t.Fatalf("WriteLockReqs = %d, want 0", st.WriteLockReqs)
	}
	if st.CommitRoundTrips != 0 {
		t.Fatalf("CommitRoundTrips = %d, want 0 (read-only commits contribute none)",
			st.CommitRoundTrips)
	}
	if st.ReadLockReqs == 0 {
		t.Fatal("read-only scans must still take read locks")
	}
	if n := s.LockedAddrs(); n != 0 {
		t.Fatalf("%d addresses still locked after read-only commits", n)
	}
}

// TestReadOnlyWritePanics: a write inside a declared ReadOnly transaction
// is a programming error and panics.
func TestReadOnlyWritePanics(t *testing.T) {
	s := testSystem(t, nil)
	a := s.Mem.Alloc(1, 0)
	panicked := false
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			rt.RunReadOnly(func(tx *Tx) {
				tx.Write(a, 1)
			})
		}()
	})
	s.RunToCompletion()
	if !panicked {
		t.Fatal("write inside a ReadOnly transaction did not panic")
	}
}

// TestAbortInsideRunPanics: Run has no way to surface a user abort, so
// Tx.Abort under it is a loud programming error.
func TestAbortInsideRunPanics(t *testing.T) {
	s := testSystem(t, nil)
	panicked := false
	s.SpawnWorkers(func(rt *Runtime) {
		if rt.AppIndex() != 0 {
			return
		}
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			rt.Run(func(tx *Tx) {
				tx.Abort(errors.New("nope"))
			})
		}()
	})
	s.RunToCompletion()
	if !panicked {
		t.Fatal("Tx.Abort inside Run did not panic")
	}
}

// TestReadOnlyKindString covers the TxKind extension.
func TestReadOnlyKindString(t *testing.T) {
	if ReadOnly.String() != "read-only" {
		t.Fatalf("ReadOnly.String() = %q", ReadOnly.String())
	}
}

// TestReadOnlyAuditClean: declared read-only scans interleaved with writers
// keep the linearizability audit green — the scan serializes at its last
// read like any lock-holding read-only transaction.
func TestReadOnlyAuditClean(t *testing.T) {
	s := testSystem(t, func(cfg *Config) { cfg.Policy = cm.FairCM })
	s.EnableAudit()
	const words = 8
	arr := NewTArray(s, Uint64Codec(), words, 100)
	s.SpawnWorkers(func(rt *Runtime) {
		r := rt.Rand()
		for i := 0; i < 15; i++ {
			if rt.AppIndex() == 0 {
				var sum uint64
				rt.RunReadOnly(func(tx *Tx) {
					sum = 0
					for j := 0; j < words; j++ {
						sum += arr.Get(tx, j)
					}
				})
				if sum != 100*words {
					t.Errorf("scan observed %d, want %d: opacity violated", sum, 100*words)
				}
			} else {
				from := r.Intn(words)
				to := (from + 1) % words
				rt.Run(func(tx *Tx) {
					f := arr.Get(tx, from)
					tv := arr.Get(tx, to)
					arr.Set(tx, from, f-1)
					arr.Set(tx, to, tv+1)
				})
			}
		}
	})
	s.RunToCompletion()
	initial := make(map[mem.Addr]uint64)
	for i := 0; i < words; i++ {
		initial[arr.Addr(i)] = 100
	}
	if err := s.CheckAudit(initial); err != nil {
		t.Fatalf("audit failed: %v", err)
	}
}
