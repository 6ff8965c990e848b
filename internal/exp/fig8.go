package exp

import (
	"fmt"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/apps/hashset"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
	"repro/internal/sim"
)

func init() {
	register("fig8a", "Round-trip message latency vs cores (SCC, SCC800, Opteron)", fig8a)
	register("fig8b", "Bank on many-core vs multi-core", fig8b)
	register("fig8c", "Linked list on many-core vs multi-core", fig8c)
	register("fig8d", "Hash table on many-core vs multi-core", fig8d)
}

func platforms() []noc.Platform {
	return []noc.Platform{noc.SCC(0), noc.SCC(1), noc.Opteron()}
}

// pingPong reproduces the §7.1 latency experiment: half the cores are
// dedicated service cores that respond immediately; each application core
// sends messages evenly distributed to all service cores and waits for each
// response. The average round trip is returned.
func pingPong(pl noc.Platform, total int, msgsPerCore int, seed uint64) time.Duration {
	k := sim.New(seed)
	nApp := total / 2
	nSvc := total - nApp
	type ping struct {
		reply *sim.Proc
		core  int
	}
	svcProcs := make([]*sim.Proc, nSvc)
	svcCores := make([]int, nSvc)
	for i := 0; i < nSvc; i++ {
		core := nApp + i
		svcCores[i] = core
		svcProcs[i] = k.Spawn(fmt.Sprintf("svc%d", core), func(p *sim.Proc) {
			for {
				m := p.Recv()
				pg := m.Payload.(ping)
				// Respond immediately, without local computation (§7.1).
				p.Send(pg.reply, struct{}{}, pl.MsgDelay(core, pg.core, 16, nSvc))
			}
		})
	}
	var totalRT time.Duration
	var count int
	for a := 0; a < nApp; a++ {
		a := a
		k.Spawn(fmt.Sprintf("app%d", a), func(p *sim.Proc) {
			for i := 0; i < msgsPerCore; i++ {
				svc := i % nSvc
				start := p.Now()
				p.Send(svcProcs[svc], ping{reply: p, core: a}, pl.MsgDelay(a, svcCores[svc], 16, nApp))
				p.Recv()
				totalRT += (p.Now() - start).Duration()
				count++
			}
		})
	}
	k.Run(port.Infinity)
	k.Shutdown()
	if count == 0 {
		return 0
	}
	return totalRT / time.Duration(count)
}

func fig8a(sc Scale, ov Overrides) []*Table {
	t := &Table{
		ID:      "fig8a",
		Title:   "Average round-trip message latency (µs)",
		Columns: []string{"cores", "SCC", "SCC800", "Opteron"},
	}
	msgs := 500
	if sc.SizeDiv > 4 {
		msgs = 100
	}
	for _, n := range sc.Cores {
		row := []any{n}
		for _, pl := range platforms() {
			rt := pingPong(pl, n, msgs, sc.Seed)
			row = append(row, float64(rt)/1000.0)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig.8(a): SCC latency degrades from ~5.1µs to ~12.4µs with core count (per-peer polling); SCC800 is fastest; the Opteron's software channels sit in between")
	return []*Table{t}
}

func fig8b(sc Scale, ov Overrides) []*Table {
	accounts := sc.div(1024, 64)
	mixed := &Table{
		ID:      "fig8b",
		Title:   "Bank 20% balance / 80% transfers (ops/ms)",
		Columns: []string{"cores", "SCC", "SCC800", "Opteron"},
	}
	transfers := &Table{
		ID:      "fig8b-transfers",
		Title:   "Bank 100% transfers (ops/ms)",
		Columns: []string{"cores", "SCC", "SCC800", "Opteron"},
	}
	for _, n := range sc.Cores {
		rowM := []any{n}
		rowT := []any{n}
		for _, pl := range platforms() {
			for i, balPct := range []int{20, 0} {
				c := defaultSys(n)
				c.Platform = pl
				c.Seed = sc.Seed
				st, _ := bankRun(sc, ov, c, accounts, func(b *bank.Bank) func(*core.Runtime) {
					return b.TransferWorker(balPct)
				})
				v := perMs(st.Ops, st.Duration)
				if i == 0 {
					rowM = append(rowM, v)
				} else {
					rowT = append(rowT, v)
				}
			}
		}
		mixed.AddRow(rowM...)
		transfers.AddRow(rowT...)
	}
	mixed.Notes = append(mixed.Notes,
		"paper Fig.8(b): the SCC behaves better under heavy contention; the low-contention workload follows the messaging latencies")
	return []*Table{mixed, transfers}
}

func fig8c(sc Scale, ov Overrides) []*Table {
	elems := sc.div(512, 16)
	t := &Table{
		ID:      "fig8c",
		Title:   fmt.Sprintf("Linked list, %d elems, 10%% updates (ops/ms)", elems),
		Columns: []string{"cores", "SCC", "SCC800", "Opteron"},
	}
	for _, n := range sc.Cores {
		row := []any{n}
		for _, pl := range platforms() {
			st := listRun(sc, ov, pl, n, elems, 10, core.Normal, sc.Seed)
			row = append(row, perMs(st.Ops, st.Duration))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig.8(c): a high-contention benchmark where the multi-core profits from caching the list hot spots")
	return []*Table{t}
}

func fig8d(sc Scale, ov Overrides) []*Table {
	elems := sc.div(512, 32)
	out := make([]*Table, 0, 2)
	for _, lf := range []int{4, 16} {
		t := &Table{
			ID:      fmt.Sprintf("fig8d-load%d", lf),
			Title:   fmt.Sprintf("Hash table, %d elems, load factor %d, 10%% updates (ops/ms)", elems, lf),
			Columns: []string{"cores", "SCC", "SCC800", "Opteron"},
		}
		buckets := elems / lf
		if buckets < 2 {
			buckets = 2
		}
		for _, n := range sc.Cores {
			row := []any{n}
			for _, pl := range platforms() {
				c := defaultSys(n)
				c.Platform = pl
				c.Seed = sc.Seed
				st := hashRun(sc, ov, c, buckets, lf, hashset.Workload{UpdatePct: 10})
				row = append(row, perMs(st.Ops, st.Duration))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	out[0].Notes = append(out[0].Notes,
		"paper Fig.8(d): the low-contention hash table follows the message latencies of Fig.8(a)")
	return out
}
