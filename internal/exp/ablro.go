package exp

import (
	"fmt"

	"repro/internal/apps/bank"
	"repro/internal/core"
)

func init() {
	register("ablro", "Ablation: declared read-only transactions vs normal transactions (bank balance mixes)", ablRO)
}

// ablRO measures what the declared read-only transaction kind buys on the
// bank's balance-heavy mixes. A balance scan has an empty write set either
// way, so it never sends write-lock requests — the declared kind's gains
// are the skipped commit bookkeeping (its commit is just the release
// burst), the skipped write-set allocation, and the static no-write
// guarantee. The effect therefore scales with the fraction and length of
// the scans, which is exactly what the mix sweep shows.
func ablRO(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(1024, 64)
	t := &Table{
		ID:      "ablro",
		Title:   fmt.Sprintf("Declared read-only vs normal balance scans, %d accounts, 48 cores", accounts),
		Columns: []string{"balance %", "kind", "ops/ms", "commit %", "ro commits", "commit rt/commit"},
	}
	for _, balPct := range []int{20, 50, 100} {
		for _, ro := range []bool{false, true} {
			ro := ro
			c := defaultSys(48)
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
				b.UseReadOnlyBalance(ro)
				return b.TransferWorker(balPct)
			})
			kind := "normal"
			if ro {
				kind = "read-only"
			}
			rtPerCommit := 0.0
			if st.Commits > 0 {
				rtPerCommit = float64(st.CommitRoundTrips) / float64(st.Commits)
			}
			t.AddRow(fmt.Sprintf("%d%%", balPct), kind,
				perMs(st.Ops, st.Duration), st.CommitRate(), st.ReadOnlyCommits, rtPerCommit)
		}
	}
	t.Notes = append(t.Notes,
		"a balance scan sends no write-lock requests under either kind (empty write set); the declared kind drops the commit bookkeeping and write-set allocation on top",
		"commit round trips per commit fall as the read-only share of commits rises — read-only commits contribute zero")
	return []*Table{t}
}
