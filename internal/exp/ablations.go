package exp

import (
	"fmt"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/apps/hashset"
	"repro/internal/core"
	"repro/internal/placement"
)

// Ablations beyond the paper's figures: each isolates one design decision
// (README "Ablations beyond the paper" lists the question each answers).

func init() {
	register("ablbatch", "Ablation: message-plane coalescing x write-lock batching (scatter-write transactions)", ablBatch)
	register("ablpoll", "Ablation: sensitivity to the per-peer polling cost (the Fig.8a mechanism)", ablPoll)
	register("ablgran", "Ablation: lock granularity vs false conflicts (bank)", ablGran)
	register("ablplace", "Ablation: placement policy (hash/adaptive) across workload skew (bank)", ablPlace)
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
// finds little to merge — the planes compose, they do not stack. The third
// transport mode, adaptive flush (Config.AdaptiveFlush), closes that gap:
// fire-and-forget envelopes below the platform's bytes-per-fixed-cost
// sweet spot are held back at soft flush points and merge into the next
// burst to the same node, so coalescing pays off even when protocol
// batching has already merged each burst.
func ablBatch(sc Scale, ov Overrides) []*Table {
	run := func(total, svc int, batching bool, mode string) *core.Stats {
		c := defaultSys(total)
		c.ServiceCores = svc
		c.NoBatching = !batching
		c.Coalesce = mode != "off"
		c.AdaptiveFlush = mode == "adaptive"
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
		Title:   "Message plane: protocol batching x transport coalescing (off/on/adaptive), 16-object scatter-write transactions, 48 cores (36 app + 12 DTM)",
		Columns: []string{"batching", "coalesce", "ops/ms", "wire msgs", "wire/op", "payloads/wire", "write-lock msgs"},
	}
	for _, batching := range []bool{true, false} {
		for _, mode := range []string{"off", "on", "adaptive"} {
			st := run(48, 12, batching, mode)
			grid.AddRow(onOff(batching), mode, perMs(st.Ops, st.Duration),
				st.WireMsgs, ratio(float64(st.WireMsgs), float64(st.Ops)),
				st.PayloadsPerWireMsg(), st.WriteLockReqs)
		}
	}
	grid.Notes = append(grid.Notes,
		"batching requests all locks owned by one DTM node in a single message (§3.3): at most one write-lock message per DTM node instead of one per object",
		"coalescing merges same-destination payloads of one burst into a single wire envelope (port.Outbox), paying the fixed send/receive/hop cost once per envelope (noc.BatchDelay)",
		"headline: with protocol batching off, coalescing recovers the win at the transport layer — per-object requests re-merge per node and the node's per-request grants re-merge per core",
		"adaptive flush defers sub-threshold fire-and-forget envelopes (releases) at soft flush points until the size or age trigger fires, merging them into the next burst to the same node — the mode that makes coalescing pay on the batching-on plane too")

	scale := &Table{
		ID:      "ablbatch-scale",
		Title:   "Transport coalescing across core counts (protocol batching off)",
		Columns: []string{"cores", "coalesce", "ops/ms", "wire msgs", "wire/op", "payloads/wire"},
	}
	for _, n := range sc.Cores {
		for _, mode := range []string{"off", "on"} {
			st := run(n, 0, false, mode)
			scale.AddRow(n, mode, perMs(st.Ops, st.Duration),
				st.WireMsgs, ratio(float64(st.WireMsgs), float64(st.Ops)),
				st.PayloadsPerWireMsg())
		}
	}
	scale.Notes = append(scale.Notes,
		"wire/op normalizes wire traffic to completed operations — the comparable metric on the live backend, where each row's wall-clock window covers a different amount of work",
		"more cores spread the 16-object write set over more DTM nodes, shrinking each per-node group; the coalescing win narrows but never inverts")
	return []*Table{grid, scale}
}

func ablPoll(sc Scale, ov Overrides) []*Table {
	t := &Table{
		ID:      "ablpoll",
		Title:   "Per-peer polling cost sensitivity: bank 100% transfers, 48 cores (ops/ms)",
		Columns: []string{"poll scale", "poll/peer", "ops/ms"},
	}
	accounts := sc.div(1024, 64)
	base := defaultSys(48)
	for _, scale := range []float64{0, 0.5, 1, 2, 4} {
		c := base
		c.Platform.PollPerPeer = time.Duration(float64(c.Platform.PollPerPeer) * scale)
		c.Seed = sc.Seed
		st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
			return b.TransferWorker(0)
		})
		t.AddRow(fmt.Sprintf("%.1fx", scale), c.Platform.PollPerPeer.String(), perMs(st.Ops, st.Duration))
	}
	t.Notes = append(t.Notes,
		"the polling cost is the mechanism behind the SCC's latency degradation in Fig.8(a): removing it makes messaging — and TM2C — scale almost linearly")
	return []*Table{t}
}

// ablPlace compares static hash against adaptive placement
// (internal/placement) across access skew on two bank workloads. The
// headline is the hot-read mix: skewed reads take shared read locks, so the
// skew creates no data conflicts — only service load concentrated on the
// DTM nodes owning the hot accounts, which is exactly the imbalance
// placement can and cannot fix. The transfer companion shows the
// conflict-bound regime, where the hot keys conflict no matter which node
// arbitrates them and every policy converges.
func ablPlace(sc Scale, ov Overrides) []*Table {
	policies := []placement.Kind{placement.Hash, placement.Adaptive}
	skews := []float64{0, 0.9, 1.25}
	label := func(theta float64) string {
		if theta == 0 {
			return "uniform"
		}
		return fmt.Sprintf("zipf-%.2g", theta)
	}

	hot := &Table{
		ID:      "ablplace",
		Title:   "Placement vs read skew: bank hot-read mix (90% 12-account audits, 10% transfers), 48 cores, 6 DTM nodes",
		Columns: []string{"skew", "policy", "ops/ms", "commit %", "node imbalance", "migrations", "stale nacks"},
	}
	accounts := sc.div(4096, 256)
	for _, theta := range skews {
		for _, k := range policies {
			c := defaultSys(48)
			c.ServiceCores = 6
			c.Placement = k
			c.RepartitionEpoch = 1024 // adapt within even the quick scale's window
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
				return b.HotReadWorker(10, 12, theta)
			})
			hot.AddRow(label(theta), k.String(), perMs(st.Ops, st.Duration), st.CommitRate(),
				st.LoadImbalance(), st.Migrations, st.StaleNacks)
		}
	}
	hot.Notes = append(hot.Notes,
		"node imbalance = max/mean served requests across DTM nodes (1 = perfectly balanced)",
		"adaptive migrates hot stripes off overloaded nodes via the epoch/NACK remap protocol and tracks hash's balance or better",
		"migrations count stripe moves initiated by the directory; stale nacks are requests that chased a moving stripe and re-resolved")

	xfer := &Table{
		ID:      "ablplace-xfer",
		Title:   "Placement vs write skew: bank 100% Zipf transfers, 32 cores (conflict-bound regime)",
		Columns: []string{"skew", "policy", "ops/ms", "commit %", "node imbalance", "migrations"},
	}
	xaccounts := sc.div(2048, 128)
	for _, theta := range []float64{0, 0.9} {
		for _, k := range policies {
			c := defaultSys(32)
			c.Placement = k
			c.Seed = sc.Seed
			st, _ := bankRun(sc, ov, c, xaccounts, func(b *bank.Bank) func(*core.Runtime) {
				return b.ZipfTransferWorker(0, theta)
			})
			xfer.AddRow(label(theta), k.String(), perMs(st.Ops, st.Duration), st.CommitRate(),
				st.LoadImbalance(), st.Migrations)
		}
	}
	xfer.Notes = append(xfer.Notes,
		"skewed writes conflict on the hot accounts themselves, so no placement can lift the commit rate: the policies converge and the remap protocol's only job is to not make things worse")
	return []*Table{hot, xfer}
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
