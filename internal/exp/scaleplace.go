package exp

import (
	"fmt"

	"repro/internal/apps/bank"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/placement"
)

func init() {
	register("scaleplace", "Scale: static vs hierarchical adaptive placement across skew on a million-object bank", scalePlace)
}

// scalePlace is the scale ablation of the hierarchical directory: the bank
// account array grows to Scale.Objects (a million accounts at the Large
// scale) and every cluster's workers hammer a Zipf-skewed slice of their
// own contiguous partition (bank.LocalZipfWorker), so the heat is both
// skewed and locality-structured. Rows compare hash (static, perfectly
// spread, locality-blind) and hier (balances totals toward the accessors'
// cluster) at uniform and Zipf skew; a uniform hier row never wakes its heat
// plane, so its remote % is the interleaved start's. The directory gauges
// make the scaling claim checkable: the leaf universe covers every stripe
// the configured memory could hold, while materialized leaves stay
// proportional to the touched working set — repartition scans walk only the
// latter. Above 48 cores the paper's SCC is out of tiles and the run moves
// to a 16x8 mesh of 2-core tiles.
func scalePlace(sc Scale, ov Overrides) []*Table {
	objects := sc.Objects
	if objects == 0 {
		objects = sc.div(1<<17, 4096)
	}
	cores := 0
	for _, n := range sc.Cores {
		if n > cores {
			cores = n
		}
	}
	pl := noc.SCC(0)
	if cores > pl.NumCores() {
		pl = noc.Mesh(16, 8, 2)
	}
	label := func(theta float64) string {
		if theta == 0 {
			return "uniform"
		}
		return fmt.Sprintf("zipf-%.2g", theta)
	}

	t := &Table{
		ID:    "scaleplace",
		Title: fmt.Sprintf("Placement at scale: %d-account bank, cluster-local Zipf transfers, %d cores on %s", objects, cores, pl.Name),
		Columns: []string{"skew", "policy", "objects", "ops/ms", "commit %", "node imbalance",
			"wire/op", "migrations", "leaves", "leaf universe", "remote %"},
	}
	parts := pl.NumClusters()
	for _, theta := range []float64{0, 0.99} {
		for _, k := range placement.Kinds() {
			c := defaultSys(cores)
			c.Platform = pl
			c.ServiceCores = cores / 8
			c.Placement = k
			c.RepartitionEpoch = 1024
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, objects, func(b *bank.Bank) func(*core.Runtime) {
				return b.LocalZipfWorker(parts, pl.ClusterOf, theta)
			})
			t.AddRow(label(theta), k.String(), objects, perMs(st.Ops, st.Duration), st.CommitRate(),
				st.LoadImbalance(), ratio(float64(st.Msgs), float64(st.Ops)),
				st.Migrations, st.MaterializedLeaves, st.LeafUniverse,
				100*st.RemoteAccessRatio())
		}
	}
	t.Notes = append(t.Notes,
		"every worker's transfers stay inside its cluster's contiguous account partition, Zipf-skewed within it — heat is locality-structured, the regime co-mapping exists for",
		"leaves / leaf universe: owner state the hierarchical directory materialized vs the leaf count a flat table would scan — epoch repartitioning walks only the former",
		"remote % counts directory-recorded accesses whose owning DTM node sat outside the accessor's cluster (0 for hash: the static policy records no accesses)",
		"under Zipf, hier must hold hash's throughput and pull remote % below the uniform row's, which is the interleaved start's; at uniform skew its heat plane sleeps and it tracks hash")
	return []*Table{t}
}
