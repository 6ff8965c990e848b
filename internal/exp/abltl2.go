package exp

import (
	"fmt"

	"repro/internal/apps/bank"
	"repro/internal/apps/intset"
	"repro/internal/core"
	"repro/internal/port"
	"repro/internal/trace"
)

func init() {
	register("abltl2", "Ablation: invisible-read TL2 protocol vs visible reads (read-mostly workloads)", ablTL2)
}

// ablTL2 measures what the invisible-read TL2 mode buys where it should win
// biggest: read-mostly workloads, where the visible protocol pays one DTM
// round trip per first read while TL2 reads locally against the sharded
// version clock and only talks to the DTM nodes at commit (and not at all
// for pure readers). The wire/op column is the ablation's headline — the
// per-read round trips simply vanish — and TestShapeTL2KillsReadTraffic
// gates on it.
func ablTL2(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(1024, 64)
	elems := sc.div(512, 32)
	t := &Table{
		ID: "abltl2",
		Title: fmt.Sprintf(
			"Invisible-read TL2 vs visible reads, read-mostly mixes (%d accounts / %d list elems, 48 cores)",
			accounts, elems),
		Columns: []string{"workload", "protocol", "ops/ms", "wire/op", "commit %",
			"local rd/op", "reval/commit", "clock ticks", "doomed",
			"ab-conflict/op", "ab-revoked/op", "ab-doomed/op", "ab-stale/op", "ab-user/op"},
	}
	protocols := []core.Protocol{core.ProtocolVisible, core.ProtocolTL2}

	// Bank with Zipf-skewed hot reads: 10% transfers, 90% audits of an
	// 8-account Zipf(0.85) read set — the paper's balance-heavy regime with
	// realistic skew.
	for _, proto := range protocols {
		c := defaultSys(48)
		c.Seed = sc.Seed
		c.Protocol = proto
		st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
			return b.HotReadWorker(10, 8, 0.85)
		})
		addTL2Row(t, "bank-zipf", proto, st)
	}

	// Linked list, lookup-heavy synchrobench mix (10% updates): long
	// traversals make the visible protocol's per-node read round trips the
	// dominant cost.
	for _, proto := range protocols {
		c := defaultSys(48)
		c.Seed = sc.Seed
		c.Protocol = proto
		s := ov.build(c)
		l := intset.New(s)
		r := port.NewRand(sc.Seed ^ 0x77)
		keyRange := uint64(2 * elems)
		l.InitFill(elems, keyRange, &r)
		s.SpawnWorkers(l.Worker(intset.Workload{UpdatePct: 10, KeyRange: keyRange, Kind: core.Normal}))
		st := s.Run(sc.Duration)
		addTL2Row(t, "intset-lookup", proto, st)
	}

	t.Notes = append(t.Notes,
		"ab-*/op: aborts per completed operation by taxonomy reason (conflict, CM revocation, doomed snapshot read, stale placement, user)",
		"wire/op: physical wire messages per completed operation; tl2 reads are local, so only commit-time write-lock traffic remains",
		"local rd/op counts reads served from the local version table; doomed counts snapshot-staleness aborts (the opacity mechanism)",
		"pure read-only transactions under tl2 send zero messages: no locks, no validation traffic, just a clock snapshot")
	return []*Table{t}
}

// addTL2Row appends one protocol's measurements to the abltl2 table.
func addTL2Row(t *Table, workload string, proto core.Protocol, st *core.Stats) {
	revalPerCommit := 0.0
	if st.Commits > 0 {
		revalPerCommit = float64(st.Revalidations) / float64(st.Commits)
	}
	ops := float64(st.Ops)
	t.AddRow(workload, proto.String(),
		perMs(st.Ops, st.Duration),
		ratio(float64(st.Msgs), ops),
		st.CommitRate(),
		ratio(float64(st.LocalReads), ops),
		revalPerCommit,
		st.ClockAdvances,
		st.DoomedReads,
		ratio(float64(st.AbortReasons[trace.ReasonConflict]), ops),
		ratio(float64(st.AbortReasons[trace.ReasonRevoked]), ops),
		ratio(float64(st.AbortReasons[trace.ReasonDoomedRead]), ops),
		ratio(float64(st.AbortReasons[trace.ReasonStalePlacement]), ops),
		ratio(float64(st.AbortReasons[trace.ReasonUser]), ops))
}
