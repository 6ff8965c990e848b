package exp

import (
	"repro/internal/apps/hashset"
	"repro/internal/core"
	"repro/internal/port"
)

func init() {
	register("fig4a", "Hash table: multitasked vs dedicated deployment (20% updates, load factors 2 and 8)", fig4a)
	register("fig4b", "Hash table: speedup over bare sequential, 24+24 cores", fig4b)
	register("fig4c", "Hash table: eager vs lazy write-lock acquisition (30% updates incl. 20% moves)", fig4c)
}

// hashRun builds a hash table of nbuckets with loadFactor*nbuckets initial
// elements and runs the transactional workload for the scale's window.
func hashRun(sc Scale, ov Overrides, c core.Config, nbuckets, loadFactor int, w hashset.Workload) *core.Stats {
	s := ov.build(c)
	set := hashset.New(s, nbuckets)
	elems := nbuckets * loadFactor
	if w.KeyRange == 0 {
		w.KeyRange = uint64(2 * elems)
	}
	r := port.NewRand(c.Seed ^ 0xabcd)
	set.InitFill(elems, w.KeyRange, &r)
	s.SpawnWorkers(set.Worker(w))
	return s.Run(sc.Duration)
}

// hashSeq measures the bare sequential throughput of the same workload on
// one core.
func hashSeq(sc Scale, ov Overrides, nbuckets, loadFactor int, w hashset.Workload) float64 {
	c := defaultSys(2)
	c.ServiceCores = 1
	c.Seed = sc.Seed
	s := ov.build(c)
	set := hashset.New(s, nbuckets)
	elems := nbuckets * loadFactor
	if w.KeyRange == 0 {
		w.KeyRange = uint64(2 * elems)
	}
	r := port.NewRand(sc.Seed ^ 0xabcd)
	set.InitFill(elems, w.KeyRange, &r)
	deadline := port.Time(sc.Duration)
	s.SpawnRaw(func(p core.Port, coreID int) {
		rr := p.Rand()
		for p.Now() < deadline {
			set.SeqOp(p, coreID, rr, w)
			s.AddOps(1)
		}
	})
	st := s.RunToCompletion()
	return perMs(st.Ops, st.Duration)
}

func fig4a(sc Scale, ov Overrides) []*Table {
	buckets := sc.div(128, 8)
	w := hashset.Workload{UpdatePct: 20}
	t := &Table{
		ID:      "fig4a",
		Title:   "Hash table throughput (ops/ms): multitasked vs dedicated",
		Columns: []string{"cores", "multi,lf2", "multi,lf8", "ded,lf2", "ded,lf8"},
	}
	for _, n := range sc.Cores {
		row := []any{n}
		for _, dep := range []core.Deployment{core.Multitask, core.Dedicated} {
			for _, lf := range []int{2, 8} {
				c := defaultSys(n)
				c.Deployment = dep
				c.Seed = sc.Seed
				st := hashRun(sc, ov, c, buckets, lf, w)
				row = append(row, perMs(st.Ops, st.Duration))
			}
		}
		// Reorder: multi lf2, multi lf8, ded lf2, ded lf8 (already so).
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig.4(a): dedicated service cores outperform multitasking at every core count")
	return []*Table{t}
}

func fig4b(sc Scale, ov Overrides) []*Table {
	buckets := sc.div(64, 8)
	t := &Table{
		ID:      "fig4b",
		Title:   "Hash table speedup over sequential (48 cores: 24 app + 24 DTM)",
		Columns: []string{"load", "20% upd", "30% upd", "40% upd", "50% upd"},
	}
	for _, lf := range []int{2, 4, 6, 8} {
		row := []any{lf}
		for _, upd := range []int{20, 30, 40, 50} {
			w := hashset.Workload{UpdatePct: upd}
			c := defaultSys(48)
			c.Seed = sc.Seed
			st := hashRun(sc, ov, c, buckets, lf, w)
			seq := hashSeq(sc, ov, buckets, lf, w)
			row = append(row, ratio(perMs(st.Ops, st.Duration), seq))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig.4(b): speedup decreases as the load factor (and conflict probability) grows")
	return []*Table{t}
}

func fig4c(sc Scale, ov Overrides) []*Table {
	tput := &Table{
		ID:      "fig4c",
		Title:   "Eager vs lazy write-lock acquisition: throughput (ops/ms)",
		Columns: []string{"cores", "eager,64", "lazy,64", "eager,128", "lazy,128"},
	}
	rate := &Table{
		ID:      "fig4c-commit",
		Title:   "Eager vs lazy write-lock acquisition: commit rate (%)",
		Columns: []string{"cores", "eager,64", "lazy,64", "eager,128", "lazy,128"},
	}
	w := hashset.Workload{UpdatePct: 10, MovePct: 20} // 30% total updates, 20% moves
	for _, n := range sc.Cores {
		rowT := []any{n}
		rowR := []any{n}
		for _, nb := range []int{64, 128} {
			for _, acq := range []core.AcquireMode{core.Eager, core.Lazy} {
				c := defaultSys(n)
				c.Acquire = acq
				c.Seed = sc.Seed
				st := hashRun(sc, ov, c, sc.div(nb, 8), 4, w)
				rowT = append(rowT, perMs(st.Ops, st.Duration))
				rowR = append(rowR, st.CommitRate())
			}
		}
		tput.AddRow(rowT...)
		rate.AddRow(rowR...)
	}
	tput.Notes = append(tput.Notes,
		"paper Fig.4(c): similar at low contention; lazy wins as conflicts increase")
	return []*Table{tput, rate}
}
