package exp

import (
	"repro/internal/apps/hashset"
	"repro/internal/apps/intset"
	"repro/internal/apps/skiplist"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
)

// Extension experiments beyond the paper's evaluation.

func init() {
	register("extskip", "Extension: skip list vs list vs hash table (20% updates)", extSkip)
	register("extirrev", "Extension: irrevocable transactions mixed with optimistic load", extIrrev)
}

// extSkip compares the three search structures at equal logical size under
// the same workload: the hash table's O(load factor) chains, the skip
// list's O(log n) towers and the list's O(n) traversals produce read sets
// of very different sizes, which directly scales the number of messages per
// operation — the dominant cost on a message-passing TM.
func extSkip(sc Scale, ov Overrides) []*Table {
	elems := sc.div(512, 32)
	t := &Table{
		ID:      "extskip",
		Title:   "Search structures, equal size, 20% updates (ops/ms)",
		Columns: []string{"cores", "hashset", "skiplist", "list"},
	}
	keyRange := uint64(2 * elems)
	for _, n := range sc.Cores {
		row := []any{n}

		ch := defaultSys(n)
		ch.Seed = sc.Seed
		st := hashRun(sc, ov, ch, elems/4, 4, hashset.Workload{UpdatePct: 20, KeyRange: keyRange})
		row = append(row, perMs(st.Ops, st.Duration))

		cs := defaultSys(n)
		cs.Seed = sc.Seed
		s := ov.build(cs)
		sl := skiplist.New(s)
		r := port.NewRand(sc.Seed ^ 0x51)
		sl.InitFill(elems, keyRange, &r)
		s.SpawnWorkers(sl.Worker(skiplist.Workload{UpdatePct: 20, KeyRange: keyRange}))
		st = s.Run(sc.Duration)
		row = append(row, perMs(st.Ops, st.Duration))

		lst := listRun(sc, ov, noc.SCC(0), n, elems, 20, intset.Normal, sc.Seed)
		row = append(row, perMs(lst.Ops, lst.Duration))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"read-set size drives message count: O(load) hash chains beat O(log n) towers beat O(n) list scans")
	return []*Table{t}
}

// extIrrev measures the cost of the §2 irrevocable-transaction extension: a
// fraction of operations run pessimistically (acquiring every DTM node's
// exclusivity token), the rest are ordinary optimistic transfers.
func extIrrev(sc Scale, ov Overrides) []*Table {
	// Irrevocability is a visible-protocol facility (TL2 readers bypass the
	// DTM exclusivity tokens), so this experiment pins the protocol rather
	// than crashing under a forced -protocol tl2.
	forced := ov.Sys
	ov.Sys = func(c *core.Config) {
		if forced != nil {
			forced(c)
		}
		c.Protocol = core.ProtocolVisible
	}
	accounts := sc.div(1024, 64)
	t := &Table{
		ID:      "extirrev",
		Title:   "Irrevocable transactions mixed into bank transfers (48 cores, ops/ms)",
		Columns: []string{"irrevocable %", "ops/ms", "irrevocables/s"},
	}
	for _, pct := range []int{0, 1, 5, 10} {
		c := defaultSys(48)
		c.Seed = sc.Seed
		s := ov.build(c)
		accts := core.NewTArray(s, core.Uint64Codec(), accounts, 1000)
		s.SpawnWorkers(func(rt *core.Runtime) {
			r := rt.Rand()
			for !rt.Stopped() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				if pct > 0 && r.Intn(100) < pct {
					rt.RunIrrevocable(func(ir *core.Irrevocable) {
						f := accts.At(from).GetIr(ir)
						tv := accts.At(to).GetIr(ir)
						accts.At(from).SetIr(ir, f-1)
						accts.At(to).SetIr(ir, tv+1)
					})
				} else {
					rt.Run(func(tx *core.Tx) {
						f := accts.Get(tx, from)
						tv := accts.Get(tx, to)
						accts.Set(tx, from, f-1)
						accts.Set(tx, to, tv+1)
					})
				}
				rt.AddOps(1)
			}
		})
		st := s.Run(sc.Duration)
		irrevPerSec := float64(st.Irrevocables) / (float64(st.Duration) / 1e9)
		t.AddRow(pctLabel(pct), perMs(st.Ops, st.Duration), irrevPerSec)
	}
	t.Notes = append(t.Notes,
		"each irrevocable transaction drains and stalls every DTM node, so even small fractions are costly — the reason TM2C keeps them out of the core protocol")
	return []*Table{t}
}

func pctLabel(p int) string {
	return formatFloat(float64(p)) + "%"
}
