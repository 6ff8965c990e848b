// Package bank implements the bank application of §5.3: accounts in shared
// memory with transfer and balance operations. Two variants exist, as in
// the paper's evaluation:
//
//   - transactional, through the TM2C runtime;
//   - lock-based, serializing every operation behind a single global
//     test-and-set register (the SCC offers one register per core, too few
//     for fine-grained locking, §5.3).
//
// The invariant used throughout the tests is money conservation: the sum of
// all accounts never changes, and every transactional balance snapshot must
// observe the exact initial total (an opacity witness).
package bank

import (
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/port"
)

// InitialPerAccount is the starting balance of every account.
const InitialPerAccount = 1000

// Bank is a shared-memory account array, held as a typed transactional
// array of uint64 balances.
type Bank struct {
	sys   *core.System
	accts core.TArray[uint64]
	n     int

	// roBalance runs balance scans (and the zipf hot-read audits) as
	// declared ReadOnly transactions instead of Normal ones.
	roBalance bool
}

// New allocates n accounts, funded with InitialPerAccount each. Like the
// paper's benchmark state, the initial array lives behind one memory
// controller.
func New(sys *core.System, n int) *Bank {
	return &Bank{
		sys:   sys,
		accts: core.NewTArray(sys, core.Uint64Codec(), n, uint64(InitialPerAccount)),
		n:     n,
	}
}

// Accounts returns the number of accounts.
func (b *Bank) Accounts() int { return b.n }

func (b *Bank) addr(i int) mem.Addr { return b.accts.Addr(i) }

// UseReadOnlyBalance switches balance scans (and the hot-read audits of
// HotReadWorker) onto the declared read-only transaction kind, which skips
// the commit-time write machinery entirely. Call before spawning workers.
func (b *Bank) UseReadOnlyBalance(on bool) { b.roBalance = on }

// readKind is the transaction kind of the bank's read-only operations.
func (b *Bank) readKind() core.TxKind {
	if b.roBalance {
		return core.ReadOnly
	}
	return core.Normal
}

// Total is the invariant sum of the bank.
func (b *Bank) Total() uint64 { return uint64(b.n) * InitialPerAccount }

// TotalRaw sums all accounts without latency (verification only).
func (b *Bank) TotalRaw() uint64 {
	var sum uint64
	for i := 0; i < b.n; i++ {
		sum += b.accts.GetRaw(i)
	}
	return sum
}

// Transfer atomically moves amount from one account to another ("the
// sequential implementation of a transfer performs only four accesses to the
// shared memory", §5.3).
func (b *Bank) Transfer(rt *core.Runtime, from, to int, amount uint64) {
	rt.Run(func(tx *core.Tx) {
		f := b.accts.Get(tx, from)
		t := b.accts.Get(tx, to)
		b.accts.Set(tx, from, f-amount)
		b.accts.Set(tx, to, t+amount)
	})
}

// Balance atomically sums every account (a declared read-only transaction
// when UseReadOnlyBalance is set).
func (b *Bank) Balance(rt *core.Runtime) uint64 {
	var sum uint64
	rt.RunKind(b.readKind(), func(tx *core.Tx) {
		sum = 0
		for i := 0; i < b.n; i++ {
			sum += b.accts.Get(tx, i)
		}
	})
	return sum
}

// GlobalLock is the single test-and-set lock of the lock-based variant; it
// lives on the register of core 0.
type GlobalLock struct {
	sys *core.System
	reg int
}

// NewGlobalLock returns the bank's global lock.
func NewGlobalLock(sys *core.System) *GlobalLock {
	return &GlobalLock{sys: sys, reg: 0}
}

// Acquire spins on the remote register with randomized exponential backoff.
func (l *GlobalLock) Acquire(p core.Port, coreID int) {
	backoff := 2 * time.Microsecond
	for l.sys.Regs.TAS(p, coreID, l.reg) {
		p.Pause(time.Duration(p.Rand().Int63() % int64(backoff)))
		if backoff < 128*time.Microsecond {
			backoff *= 2
		}
	}
}

// Release clears the lock.
func (l *GlobalLock) Release(p core.Port, coreID int) {
	l.sys.Regs.TASRelease(p, coreID, l.reg)
}

// LockTransfer is the lock-based transfer: four shared-memory accesses under
// the global lock.
func (b *Bank) LockTransfer(l *GlobalLock, p core.Port, coreID, from, to int, amount uint64) {
	l.Acquire(p, coreID)
	f := b.accts.At(from).GetDirect(p, coreID)
	t := b.accts.At(to).GetDirect(p, coreID)
	b.accts.At(from).SetDirect(p, coreID, f-amount)
	b.accts.At(to).SetDirect(p, coreID, t+amount)
	l.Release(p, coreID)
}

// LockBalance is the lock-based balance scan.
func (b *Bank) LockBalance(l *GlobalLock, p core.Port, coreID int) uint64 {
	l.Acquire(p, coreID)
	var sum uint64
	for i := 0; i < b.n; i++ {
		sum += b.accts.At(i).GetDirect(p, coreID)
	}
	l.Release(p, coreID)
	return sum
}

// PickTransfer draws a random (from, to) pair with from != to.
func PickTransfer(r *port.Rand, n int) (from, to int) {
	from = r.Intn(n)
	to = (from + 1 + r.Intn(n-1)) % n
	return from, to
}

// TransferWorker returns a worker loop executing transfers with the given
// percentage of balance operations, until the system deadline.
func (b *Bank) TransferWorker(balancePct int) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			if balancePct > 0 && r.Intn(100) < balancePct {
				b.Balance(rt)
			} else {
				from, to := PickTransfer(r, b.n)
				b.Transfer(rt, from, to, 1)
			}
			rt.AddOps(1)
		}
	}
}

// BalanceOnlyWorker returns a worker that repeatedly runs balance
// operations (the "1 reader" core of Figures 5(c)/5(d)).
func (b *Bank) BalanceOnlyWorker() func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		for !rt.Stopped() {
			b.Balance(rt)
			rt.AddOps(1)
		}
	}
}
