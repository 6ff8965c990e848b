package exp

import (
	"repro/internal/apps/hashset"
	"repro/internal/core"
)

// Ablations beyond the paper's figures: each isolates one design decision
// (README "Ablations beyond the paper" lists the question each answers).

func init() {
	register("ablbatch", "Ablation: message-plane coalescing x write-lock batching (scatter-write transactions)", ablBatch)
	register("ablgran", "Ablation: lock granularity vs false conflicts (bank)", ablGran)
}

// ablBatch compares the two batching layers of the message plane on a
// contended scatter-write workload: protocol-level write-lock batching
// (§3.3, one request per responsible DTM node; Config.NoBatching disables
// it) against transport-level coalescing (Config.Coalesce, port.Outbox:
// payloads sharing a destination within one burst share a wire message,
// charged noc.BatchDelay's one-fixed-cost-per-envelope model). The headline
// is the batching-off pair: coalescing re-merges the per-object requests
// AND the per-request responses at the transport, recovering most of the
// protocol batching win without protocol knowledge. With protocol batching
// on, every burst is already one payload per node and plain coalescing
// finds little to merge — the planes compose, they do not stack (a third
// arm that deferred releases across bursts to win that row is
// docs/RETIRED.md, "Adaptive outbox flush").
func ablBatch(sc Scale, ov Overrides) []*Table {
	run := func(total, svc int, batching, coalesce bool) *core.Stats {
		c := defaultSys(total)
		c.ServiceCores = svc
		c.NoBatching = !batching
		c.Coalesce = coalesce
		c.Seed = sc.Seed
		s := ov.build(c)
		const words = 4096
		arr := core.NewTArray(s, core.Uint64Codec(), words, 0)
		s.SpawnWorkers(func(rt *core.Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				rt.Run(func(tx *core.Tx) {
					for i := 0; i < 16; i++ {
						arr.Set(tx, r.Intn(words), uint64(i))
					}
				})
				rt.AddOps(1)
			}
		})
		return s.Run(sc.Duration)
	}
	onOff := func(v bool) string {
		if v {
			return "on"
		}
		return "off"
	}

	grid := &Table{
		ID:      "ablbatch",
		Title:   "Message plane: protocol batching x transport coalescing, 16-object scatter-write transactions, 48 cores (36 app + 12 DTM)",
		Columns: []string{"batching", "coalesce", "ops/ms", "wire msgs", "wire/op", "payloads/wire", "write-lock msgs"},
	}
	for _, batching := range []bool{true, false} {
		for _, coalesce := range []bool{false, true} {
			st := run(48, 12, batching, coalesce)
			grid.AddRow(onOff(batching), onOff(coalesce), perMs(st.Ops, st.Duration),
				st.WireMsgs, ratio(float64(st.WireMsgs), float64(st.Ops)),
				st.PayloadsPerWireMsg(), st.WriteLockReqs)
		}
	}
	grid.Notes = append(grid.Notes,
		"batching requests all locks owned by one DTM node in a single message (§3.3): at most one write-lock message per DTM node instead of one per object",
		"coalescing merges same-destination payloads of one burst into a single wire envelope (port.Outbox), paying the fixed send/receive/hop cost once per envelope (noc.BatchDelay)",
		"headline: with protocol batching off, coalescing recovers the win at the transport layer — per-object requests re-merge per node and the node's per-request grants re-merge per core")

	scale := &Table{
		ID:      "ablbatch-scale",
		Title:   "Transport coalescing across core counts (protocol batching off)",
		Columns: []string{"cores", "coalesce", "ops/ms", "wire msgs", "wire/op", "payloads/wire"},
	}
	for _, n := range sc.Cores {
		for _, coalesce := range []bool{false, true} {
			st := run(n, 0, false, coalesce)
			scale.AddRow(n, onOff(coalesce), perMs(st.Ops, st.Duration),
				st.WireMsgs, ratio(float64(st.WireMsgs), float64(st.Ops)),
				st.PayloadsPerWireMsg())
		}
	}
	scale.Notes = append(scale.Notes,
		"wire/op normalizes wire traffic to completed operations — the comparable metric on the live backend, where each row's wall-clock window covers a different amount of work",
		"more cores spread the 16-object write set over more DTM nodes, shrinking each per-node group; the coalescing win narrows but never inverts")
	return []*Table{grid, scale}
}

func ablGran(sc Scale, ov Overrides) []*Table {
	t := &Table{
		ID:      "ablgran",
		Title:   "Lock granularity: hash table 20% updates, 48 cores",
		Columns: []string{"granule (words)", "ops/ms", "commit rate %", "conflicts"},
	}
	for _, g := range []int{1, 4, 16} {
		c := defaultSys(48)
		c.LockGranule = g
		c.Seed = sc.Seed
		st := hashRun(sc, ov, c, sc.div(128, 8), 4, hashset.Workload{UpdatePct: 20})
		t.AddRow(g, perMs(st.Ops, st.Duration), st.CommitRate(), st.Conflicts)
	}
	t.Notes = append(t.Notes,
		"coarser lock stripes save lock-table state but manufacture false conflicts between unrelated objects (TM2C locks per byte; we lock per word)")
	return []*Table{t}
}
