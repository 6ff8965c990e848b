package exp

import (
	"fmt"

	"repro/internal/apps/mapreduce"
	"repro/internal/core"
	"repro/internal/port"
)

func init() {
	register("fig6a", "MapReduce: duration vs cores for three input sizes", fig6a)
	register("fig6b", "MapReduce: speedup over sequential for three chunk sizes", fig6b)
}

// mrInputDiv pre-scales the paper's file sizes (256 MB-2 GB) to simulator
// scale; Scale.SizeDiv shrinks them further.
const mrInputDiv = 64

func mrSize(sc Scale, mb int) int {
	n := mb << 20 / mrInputDiv / sc.SizeDiv
	const floor = 64 << 10
	if n < floor {
		return floor
	}
	return n
}

// mrParallel runs the job on n total cores (1 dedicated service core, as in
// §5.4) and returns the completion time.
func mrParallel(sc Scale, ov Overrides, n, size, chunk int) port.Time {
	c := defaultSys(n)
	c.ServiceCores = 1
	c.Seed = sc.Seed
	s := ov.build(c)
	j := mapreduce.NewJob(s, sc.Seed, size, chunk)
	s.SpawnWorkers(func(rt *core.Runtime) { j.Worker(rt) })
	st := s.RunToCompletion()
	if j.HistogramTotal() != uint64(size) {
		panic(fmt.Sprintf("exp: mapreduce merged %d of %d bytes", j.HistogramTotal(), size))
	}
	return st.Duration
}

// mrSequential runs the single-core baseline and returns its duration.
func mrSequential(sc Scale, ov Overrides, size, chunk int) port.Time {
	c := defaultSys(2)
	c.ServiceCores = 1
	c.Seed = sc.Seed
	s := ov.build(c)
	j := mapreduce.NewJob(s, sc.Seed, size, chunk)
	var dur port.Time
	s.SpawnRaw(func(p core.Port, coreID int) { dur = j.Sequential(p, coreID) })
	s.RunToCompletion()
	return dur
}

func fig6a(sc Scale, ov Overrides) []*Table {
	t := &Table{
		ID:      "fig6a",
		Title:   "MapReduce duration (virtual ms) vs cores, 8KB chunks",
		Columns: []string{"cores", "256MB", "512MB", "1GB"},
	}
	const chunk = 8 << 10
	for _, n := range sc.Cores {
		row := []any{n}
		for _, mb := range []int{256, 512, 1024} {
			d := mrParallel(sc, ov, n, mrSize(sc, mb), chunk)
			row = append(row, float64(d)/1e6)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("input sizes are the paper's divided by %d*SizeDiv; shapes are preserved (see README \"Reproducing the paper's figures\")", mrInputDiv),
		"paper Fig.6(a): duration drops near-linearly with cores; one DTM core suffices for the low transactional load")
	return []*Table{t}
}

func fig6b(sc Scale, ov Overrides) []*Table {
	t := &Table{
		ID:      "fig6b",
		Title:   "MapReduce speedup over sequential (48 cores: 47 app + 1 DTM)",
		Columns: []string{"input", "4KB", "8KB", "16KB"},
	}
	for _, mb := range []int{256, 512, 1024, 2048} {
		size := mrSize(sc, mb)
		row := []any{fmt.Sprintf("%dMB", mb)}
		for _, chunkKB := range []int{4, 8, 16} {
			chunk := chunkKB << 10
			seq := mrSequential(sc, ov, size, chunk)
			par := mrParallel(sc, ov, 48, size, chunk)
			row = append(row, ratio(float64(seq), float64(par)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper Fig.6(b): 8KB chunks perform best — smaller chunks pay more transaction overhead, larger ones thrash the 16KB L1")
	return []*Table{t}
}
