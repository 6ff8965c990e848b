package bank

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
)

func newSys(t *testing.T, mut func(*core.Config)) *core.System {
	t.Helper()
	cfg := core.Config{Platform: noc.SCC(0), Seed: 7, TotalCores: 8, Policy: cm.FairCM}
	if mut != nil {
		mut(&cfg)
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewFundsAccounts(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 16)
	if b.Accounts() != 16 {
		t.Fatalf("Accounts = %d", b.Accounts())
	}
	if b.TotalRaw() != b.Total() || b.Total() != 16*InitialPerAccount {
		t.Fatalf("TotalRaw = %d, Total = %d", b.TotalRaw(), b.Total())
	}
}

func TestTransactionalConservationAndSnapshots(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 12)
	s.SpawnWorkers(func(rt *core.Runtime) {
		r := rt.Rand()
		for i := 0; i < 25; i++ {
			if i%5 == 0 {
				if got := b.Balance(rt); got != b.Total() {
					t.Errorf("balance snapshot %d != %d", got, b.Total())
				}
			} else {
				from, to := PickTransfer(r, b.Accounts())
				b.Transfer(rt, from, to, uint64(r.Intn(50)))
			}
		}
	})
	s.RunToCompletion()
	if b.TotalRaw() != b.Total() {
		t.Fatalf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
	}
}

func TestLockBasedConservationAndMutualExclusion(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 12)
	l := NewGlobalLock(s)
	s.SpawnRaw(func(p core.Port, coreID int) {
		r := p.Rand()
		for i := 0; i < 25; i++ {
			if i%6 == 0 {
				if got := b.LockBalance(l, p, coreID); got != b.Total() {
					t.Errorf("lock balance %d != %d (mutual exclusion broken)", got, b.Total())
				}
			} else {
				from, to := PickTransfer(r, b.Accounts())
				b.LockTransfer(l, p, coreID, from, to, uint64(r.Intn(50)))
			}
			s.AddOps(1)
		}
	})
	st := s.RunToCompletion()
	if b.TotalRaw() != b.Total() {
		t.Fatalf("money not conserved under lock: %d != %d", b.TotalRaw(), b.Total())
	}
	if st.Ops == 0 {
		t.Fatal("no ops recorded")
	}
}

func TestPickTransferProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, n8 uint8) bool {
		n := int(n8%100) + 2
		r := port.NewRand(seed)
		for i := 0; i < 20; i++ {
			from, to := PickTransfer(&r, n)
			if from == to || from < 0 || from >= n || to < 0 || to >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferWorkerRunsUntilDeadline(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 64)
	s.SpawnWorkers(b.TransferWorker(20))
	st := s.Run(3 * time.Millisecond)
	if st.Ops == 0 {
		t.Fatal("worker made no progress")
	}
	if b.TotalRaw() != b.Total() {
		t.Fatalf("conservation after deadline drain: %d != %d", b.TotalRaw(), b.Total())
	}
}

func TestBalanceOnlyWorker(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 16)
	s.SpawnWorkers(func(rt *core.Runtime) {
		if rt.AppIndex() == 0 {
			b.BalanceOnlyWorker()(rt)
			return
		}
		b.TransferWorker(0)(rt)
	})
	st := s.Run(3 * time.Millisecond)
	if st.PerCore[0].Ops == 0 {
		t.Fatal("balance core made no progress (starved)")
	}
}

func TestGlobalLockSerializes(t *testing.T) {
	// A counter incremented under the lock must not lose updates.
	s := newSys(t, nil)
	l := NewGlobalLock(s)
	ctr := s.Mem.Alloc(1, 0)
	const perCore = 20
	s.SpawnRaw(func(p core.Port, coreID int) {
		for i := 0; i < perCore; i++ {
			l.Acquire(p, coreID)
			v := s.Mem.Read(p, coreID, ctr)
			s.Mem.Write(p, coreID, ctr, v+1)
			l.Release(p, coreID)
		}
	})
	s.RunToCompletion()
	want := uint64(perCore * s.NumAppCores())
	if got := s.Mem.ReadRaw(ctr); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
}

// bankStats runs one fixed bank workload (deterministic mixed
// transfer/balance mix) with worker logic supplied by op, and returns the
// run's Stats. Both callers below must produce the exact same virtual
// schedule for the exact same seed.
func bankStats(t *testing.T, op func(b *Bank, rt *core.Runtime, r *port.Rand)) *core.Stats {
	t.Helper()
	s := newSys(t, nil)
	b := New(s, 12)
	s.SpawnWorkers(func(rt *core.Runtime) {
		r := rt.Rand()
		for i := 0; i < 20; i++ {
			op(b, rt, r)
		}
	})
	st := s.RunToCompletion()
	if b.TotalRaw() != b.Total() {
		t.Fatalf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
	}
	return st
}

// TestTypedBankMatchesLegacyWordPath is the typed-API determinism witness:
// the same bank workload expressed through the legacy word-level API
// (tx.Read/tx.Write over raw addresses) and through typed element access
// produces bit-identical Stats for the same Config.Seed — the typed layer is
// a zero-cost veneer and the word path is unchanged. The typed scan reads
// through At(i).Get: TArray.Get batches a scan's read locks, which the word
// path does not.
func TestTypedBankMatchesLegacyWordPath(t *testing.T) {
	legacy := bankStats(t, func(b *Bank, rt *core.Runtime, r *port.Rand) {
		if r.Intn(100) < 20 {
			// Word-level balance scan.
			rt.Run(func(tx *core.Tx) {
				var sum uint64
				for i := 0; i < b.Accounts(); i++ {
					sum += tx.Read(b.addr(i))
				}
				if sum != b.Total() {
					t.Errorf("legacy balance %d != %d", sum, b.Total())
				}
			})
		} else {
			from, to := PickTransfer(r, b.Accounts())
			// Word-level transfer.
			rt.Run(func(tx *core.Tx) {
				f := tx.Read(b.addr(from))
				tv := tx.Read(b.addr(to))
				tx.Write(b.addr(from), f-1)
				tx.Write(b.addr(to), tv+1)
			})
		}
		rt.AddOps(1)
	})
	typed := bankStats(t, func(b *Bank, rt *core.Runtime, r *port.Rand) {
		if r.Intn(100) < 20 {
			rt.Run(func(tx *core.Tx) {
				var sum uint64
				for i := 0; i < b.Accounts(); i++ {
					sum += b.accts.At(i).Get(tx)
				}
				if sum != b.Total() {
					t.Errorf("typed balance %d != %d", sum, b.Total())
				}
			})
		} else {
			from, to := PickTransfer(r, b.Accounts())
			b.Transfer(rt, from, to, 1)
		}
		rt.AddOps(1)
	})
	// PerCore and NodeLoad ride along in the struct compare; Stats contains
	// only comparable fields plus slices, so compare the formatted dump.
	if fmt.Sprintf("%+v", legacy) != fmt.Sprintf("%+v", typed) {
		t.Fatalf("typed bank diverged from the legacy word path:\nlegacy: %+v\ntyped:  %+v", legacy, typed)
	}
}

// TestReadOnlyBalanceScan: with UseReadOnlyBalance, balance scans commit as
// declared read-only transactions — zero write-lock requests and zero
// commit round trips from a balance-only workload — and still observe the
// invariant total.
func TestReadOnlyBalanceScan(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 12)
	b.UseReadOnlyBalance(true)
	s.SpawnWorkers(func(rt *core.Runtime) {
		for i := 0; i < 5; i++ {
			if got := b.Balance(rt); got != b.Total() {
				t.Errorf("balance %d != %d", got, b.Total())
			}
		}
	})
	st := s.RunToCompletion()
	if st.Commits == 0 || st.ReadOnlyCommits != st.Commits {
		t.Fatalf("ReadOnlyCommits = %d of %d commits, want all", st.ReadOnlyCommits, st.Commits)
	}
	if st.WriteLockReqs != 0 || st.CommitRoundTrips != 0 {
		t.Fatalf("read-only balances sent write traffic: %d write-lock reqs, %d commit round trips",
			st.WriteLockReqs, st.CommitRoundTrips)
	}
}

// TestReadOnlyBalanceMixedWithTransfers: read-only scans interleaved with
// transfers keep CommitRoundTrips and reads for update attributable to the
// transfers alone — the scans add none — and conserve money. A committed
// transfer took its write locks either in a commit round trip or at its two
// reads (core.Tx's read for update, from its body's third commit).
func TestReadOnlyBalanceMixedWithTransfers(t *testing.T) {
	s := newSys(t, nil)
	b := New(s, 12)
	b.UseReadOnlyBalance(true)
	s.SpawnWorkers(func(rt *core.Runtime) {
		r := rt.Rand()
		for i := 0; i < 15; i++ {
			if rt.AppIndex() == 0 {
				if got := b.Balance(rt); got != b.Total() {
					t.Errorf("balance %d != %d", got, b.Total())
				}
			} else {
				from, to := PickTransfer(r, b.Accounts())
				b.Transfer(rt, from, to, 1)
			}
		}
	})
	st := s.RunToCompletion()
	if st.ReadOnlyCommits == 0 {
		t.Fatal("no read-only commits recorded")
	}
	transferCommits := st.Commits - st.ReadOnlyCommits
	if st.CommitRoundTrips == 0 && transferCommits > 0 {
		t.Fatal("transfers must pay commit round trips")
	}
	// Every commit round trip and read for update belongs to a transfer
	// attempt: scans add none.
	if st.CommitRoundTrips+st.UpdateReads/2 < transferCommits {
		t.Fatalf("CommitRoundTrips %d + reads for update %d / 2 < transfer commits %d", st.CommitRoundTrips, st.UpdateReads, transferCommits)
	}
	if b.TotalRaw() != b.Total() {
		t.Fatalf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
	}
}
