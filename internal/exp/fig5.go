package exp

import (
	"fmt"

	"repro/internal/apps/bank"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/port"
)

func init() {
	register("fig5a", "Bank: with vs without contention management (20% balance / 80% transfer)", fig5a)
	register("fig5b", "Bank: throughput for various numbers of service cores (48 total)", fig5b)
	register("fig5c", "Bank: contention managers with one balance core among transfer cores", fig5c)
	register("fig5d", "Bank: single global lock vs transactions (2048 accounts)", fig5d)
}

// bankRun runs the transactional bank with the given worker assignment.
func bankRun(sc Scale, ov Overrides, c core.Config, accounts int, worker func(*bank.Bank) func(*core.Runtime)) (*core.Stats, *bank.Bank) {
	s := ov.build(c)
	b := bank.New(s, accounts)
	s.SpawnWorkers(worker(b))
	st := s.Run(sc.Duration)
	return st, b
}

func fig5a(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(1024, 64)
	tput := &Table{
		ID:      "fig5a",
		Title:   fmt.Sprintf("Bank throughput (ops/ms), %d accounts, 20%% balance", accounts),
		Columns: []string{"cores", "wholly", "offset-greedy", "faircm", "backoff", "no-cm"},
	}
	rate := &Table{
		ID:      "fig5a-commit",
		Title:   "Bank commit rate (%)",
		Columns: []string{"cores", "wholly", "offset-greedy", "faircm", "backoff", "no-cm"},
	}
	policies := []cm.Policy{cm.Wholly, cm.OffsetGreedy, cm.FairCM, cm.BackoffRetry, cm.NoCM}
	for _, n := range sc.Cores {
		rowT := []any{n}
		rowR := []any{n}
		for _, p := range policies {
			c := defaultSys(n)
			c.Policy = p
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
				return b.TransferWorker(20)
			})
			rowT = append(rowT, perMs(st.Ops, st.Duration))
			rowR = append(rowR, st.CommitRate())
		}
		tput.AddRow(rowT...)
		rate.AddRow(rowR...)
	}
	tput.Notes = append(tput.Notes,
		"paper Fig.5(a): without a CM the system livelocks; every CM scales")
	return []*Table{tput, rate}
}

func fig5b(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(1024, 64)
	t := &Table{
		ID:      "fig5b",
		Title:   "Bank throughput (ops/ms) vs number of service cores (48 cores total)",
		Columns: []string{"svc cores", "20% balance", "100% transfers"},
	}
	for _, svc := range []int{1, 2, 4, 8, 16, 24} {
		row := []any{svc}
		for _, balPct := range []int{20, 0} {
			c := defaultSys(48)
			c.ServiceCores = svc
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
				return b.TransferWorker(balPct)
			})
			row = append(row, perMs(st.Ops, st.Duration))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig.5(b): returns diminish because SCC message passing does not scale; half/half is a good split")
	return []*Table{t}
}

func fig5c(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(1024, 64)
	policies := []cm.Policy{cm.Wholly, cm.OffsetGreedy, cm.FairCM, cm.BackoffRetry}
	tput := &Table{
		ID:      "fig5c",
		Title:   "Bank throughput (ops/ms): one balance core, rest transfers",
		Columns: []string{"cores", "wholly", "offset-greedy", "faircm", "backoff"},
	}
	rate := &Table{
		ID:      "fig5c-commit",
		Title:   "Commit rate (%): one balance core, rest transfers",
		Columns: []string{"cores", "wholly", "offset-greedy", "faircm", "backoff"},
	}
	maxCores := 0
	for _, n := range sc.Cores {
		if n > maxCores {
			maxCores = n
		}
	}
	balance := &Table{
		ID:      "fig5c-balance",
		Title:   fmt.Sprintf("Balance-core committed ops per second (%d cores)", maxCores),
		Columns: []string{"cm", "balance ops/s"},
	}
	for _, n := range sc.Cores {
		if n < 4 && n < maxCores {
			continue
		}
		rowT := []any{n}
		rowR := []any{n}
		for _, p := range policies {
			c := defaultSys(n)
			c.Policy = p
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
				return func(rt *core.Runtime) {
					if rt.AppIndex() == 0 {
						b.BalanceOnlyWorker()(rt)
						return
					}
					b.TransferWorker(0)(rt)
				}
			})
			rowT = append(rowT, perMs(st.Ops, st.Duration))
			rowR = append(rowR, st.CommitRate())
			if n == maxCores {
				balOps := float64(st.PerCore[0].Ops) / (float64(st.Duration) / 1e9)
				balance.AddRow(p.String(), balOps)
			}
		}
		tput.AddRow(rowT...)
		rate.AddRow(rowR...)
	}
	tput.Notes = append(tput.Notes,
		"paper Fig.5(c): FairCM throttles the expensive balance core and beats Wholly/Offset-Greedy by up to 12x/9x")
	return []*Table{tput, rate, balance}
}

func fig5d(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(2048, 128)
	transfers := &Table{
		ID:      "fig5d",
		Title:   fmt.Sprintf("Bank, %d accounts, all cores transfer: lock vs tx (ops/ms)", accounts),
		Columns: []string{"cores", "lock,transfers", "tx,transfers"},
	}
	reader := &Table{
		ID:      "fig5d-reader",
		Title:   "Bank, one balance core + transfers: lock vs tx (ops/ms)",
		Columns: []string{"cores", "lock,1 reader", "tx,1 reader"},
	}
	lockRun := func(n int, oneReader bool) float64 {
		c := defaultSys(n)
		c.ServiceCores = -1 // raw-only: every core runs the lock-based app
		c.Seed = sc.Seed
		s := ov.build(c)
		b := bank.New(s, accounts)
		l := bank.NewGlobalLock(s)
		deadline := port.Time(sc.Duration)
		s.SpawnRaw(func(p core.Port, coreID int) {
			r := p.Rand()
			first := coreID == s.AppCores()[0]
			for p.Now() < deadline {
				if oneReader && first {
					b.LockBalance(l, p, coreID)
				} else {
					from, to := bank.PickTransfer(r, accounts)
					b.LockTransfer(l, p, coreID, from, to, 1)
				}
				s.AddOps(1)
			}
		})
		st := s.RunToCompletion()
		return perMs(st.Ops, st.Duration)
	}
	txRun := func(n int, oneReader bool) float64 {
		c := defaultSys(n)
		c.Seed = sc.Seed
		st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
			return func(rt *core.Runtime) {
				if oneReader && rt.AppIndex() == 0 {
					b.BalanceOnlyWorker()(rt)
					return
				}
				b.TransferWorker(0)(rt)
			}
		})
		return perMs(st.Ops, st.Duration)
	}
	for _, n := range []int{28, 32, 36, 40, 44, 48} {
		transfers.AddRow(n, lockRun(n, false), txRun(n, false))
	}
	for _, n := range sc.Cores {
		if n < 4 {
			continue
		}
		reader.AddRow(n, lockRun(n, true), txRun(n, true))
	}
	transfers.Notes = append(transfers.Notes,
		"paper Fig.5(d): the lock wins at lower core counts, then collapses under contention while TM keeps scaling")
	reader.Notes = append(reader.Notes,
		"paper Fig.5(d): with one balance reader the lock serializes everything behind the scan; TM wins at every count")
	return []*Table{transfers, reader}
}
