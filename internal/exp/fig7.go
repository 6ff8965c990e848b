package exp

import (
	"fmt"

	"repro/internal/apps/intset"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
)

func init() {
	register("fig7a", "Linked list: elastic-early speedup over normal transactions", fig7a)
	register("fig7b", "Linked list: elastic-read speedup over normal and elastic-early", fig7b)
}

// listRun measures the list benchmark throughput for one transaction kind.
func listRun(sc Scale, ov Overrides, pl noc.Platform, n, elems, updatePct int, kind core.TxKind, seed uint64) *core.Stats {
	c := defaultSys(n)
	c.Platform = pl
	c.Seed = seed
	s := ov.build(c)
	l := intset.New(s)
	r := port.NewRand(seed ^ 0x77)
	keyRange := uint64(2 * elems)
	l.InitFill(elems, keyRange, &r)
	s.SpawnWorkers(l.Worker(intset.Workload{UpdatePct: updatePct, KeyRange: keyRange, Kind: kind}))
	return s.Run(sc.Duration)
}

// fig7Elems scales the paper's 2048-element list. Traversals dominate the
// simulation cost, so the default floor is modest.
func fig7Elems(sc Scale) int { return sc.div(2048, 32) }

func fig7a(sc Scale, ov Overrides) []*Table {
	elems := fig7Elems(sc)
	t := &Table{
		ID:      "fig7a",
		Title:   fmt.Sprintf("List (%d elems, 20%% updates): elastic-early speedup over normal", elems),
		Columns: []string{"cores", "speedup", "normal ops/ms", "elastic-early ops/ms"},
	}
	for _, n := range sc.Cores {
		norm := listRun(sc, ov, noc.SCC(0), n, elems, 20, core.Normal, sc.Seed)
		early := listRun(sc, ov, noc.SCC(0), n, elems, 20, core.ElasticEarly, sc.Seed)
		nT := perMs(norm.Ops, norm.Duration)
		eT := perMs(early.Ops, early.Duration)
		t.AddRow(n, ratio(eT, nT), nT, eT)
	}
	t.Notes = append(t.Notes,
		"paper Fig.7(a): the abort rate drops below 1% but each early release costs an extra message, so the speedup stays near 1")
	return []*Table{t}
}

func fig7b(sc Scale, ov Overrides) []*Table {
	elems := fig7Elems(sc)
	t := &Table{
		ID:      "fig7b",
		Title:   fmt.Sprintf("List (%d elems): elastic-read speedup", elems),
		Columns: []string{"cores", "vs normal", "vs elastic-early", "elastic-read ops/ms"},
	}
	for _, n := range sc.Cores {
		norm := listRun(sc, ov, noc.SCC(0), n, elems, 20, core.Normal, sc.Seed)
		early := listRun(sc, ov, noc.SCC(0), n, elems, 20, core.ElasticEarly, sc.Seed)
		er := listRun(sc, ov, noc.SCC(0), n, elems, 20, core.ElasticRead, sc.Seed)
		nT := perMs(norm.Ops, norm.Duration)
		eT := perMs(early.Ops, early.Duration)
		rT := perMs(er.Ops, er.Duration)
		t.AddRow(n, ratio(rT, nT), ratio(rT, eT), rT)
	}
	t.Notes = append(t.Notes,
		"paper Fig.7(b): read validation replaces one message round-trip per node with a memory access (9-18x); the gain sags at high core counts as memory congests")
	return []*Table{t}
}
