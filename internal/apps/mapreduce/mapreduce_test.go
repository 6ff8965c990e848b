package mapreduce

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
)

func newSys(t *testing.T, cores, svc int) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Config{
		Platform: noc.SCC(0), Seed: 21, TotalCores: cores, ServiceCores: svc, Policy: cm.FairCM,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParallelCountMatchesExpected(t *testing.T) {
	s := newSys(t, 8, 1) // 1 service core, as in §5.4
	j := NewJob(s, 99, 64<<10, 4<<10)
	s.SpawnWorkers(func(rt *core.Runtime) { j.Worker(rt) })
	st := s.RunToCompletion()
	if got, want := j.HistogramRaw(), j.Expected(); got != want {
		t.Fatalf("histogram mismatch:\n got %v\nwant %v", got, want)
	}
	if j.HistogramTotal() != 64<<10 {
		t.Fatalf("total = %d, want %d", j.HistogramTotal(), 64<<10)
	}
	if st.Commits == 0 {
		t.Fatal("no transactions committed")
	}
	// One chunk-grab tx + one merge tx per chunk.
	if st.Ops != uint64(64/4) {
		t.Fatalf("chunks processed = %d, want 16", st.Ops)
	}
}

func TestUnevenLastChunk(t *testing.T) {
	s := newSys(t, 4, 1)
	size := 10_000 // not a multiple of 4096
	j := NewJob(s, 5, size, 4096)
	s.SpawnWorkers(func(rt *core.Runtime) { j.Worker(rt) })
	s.RunToCompletion()
	if int(j.HistogramTotal()) != size {
		t.Fatalf("total = %d, want %d", j.HistogramTotal(), size)
	}
}

func TestSequentialMatchesExpected(t *testing.T) {
	s := newSys(t, 2, 1)
	j := NewJob(s, 7, 32<<10, 8<<10)
	var dur port.Time
	s.SpawnRaw(func(p core.Port, coreID int) {
		dur = j.Sequential(p, coreID)
	})
	s.RunToCompletion()
	if got, want := j.HistogramRaw(), j.Expected(); got != want {
		t.Fatal("sequential histogram mismatch")
	}
	if dur <= 0 {
		t.Fatal("sequential duration not positive")
	}
}

func TestCachePenaltyAboveL1(t *testing.T) {
	s := newSys(t, 2, 1)
	small := NewJob(s, 1, 1<<20, 8<<10)
	big := NewJob(s, 1, 1<<20, 16<<10)
	perByteSmall := float64(small.chunkCompute(8<<10)) / float64(8<<10)
	perByteBig := float64(big.chunkCompute(16<<10)) / float64(16<<10)
	if perByteBig <= perByteSmall {
		t.Fatalf("no cache penalty: %.2f vs %.2f ns/B", perByteBig, perByteSmall)
	}
}

func TestDeterministicChunks(t *testing.T) {
	s := newSys(t, 2, 1)
	j := NewJob(s, 42, 1<<20, 4<<10)
	a := j.countChunk(8192, 4096)
	b := j.countChunk(8192, 4096)
	if a != b {
		t.Fatal("countChunk not deterministic")
	}
	c := j.countChunk(12288, 4096)
	if a == c {
		t.Fatal("different offsets produced identical counts (suspicious)")
	}
	var total uint64
	for _, v := range a {
		total += v
	}
	if total != 4096 {
		t.Fatalf("chunk counted %d letters, want 4096", total)
	}
}

func TestNewJobValidation(t *testing.T) {
	s := newSys(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on chunk=0")
		}
	}()
	NewJob(s, 1, 100, 0)
}

func TestWorkerStopsAtDeadline(t *testing.T) {
	s := newSys(t, 8, 1)
	j := NewJob(s, 3, 1<<30, 8<<10) // effectively endless input
	s.SpawnWorkers(func(rt *core.Runtime) { j.Worker(rt) })
	st := s.Run(2_000_000)
	if st.Ops == 0 {
		t.Fatal("no chunks processed before deadline")
	}
	// Partial processing must still be internally consistent: the
	// histogram total equals chunk-size times completed merges (all full
	// chunks here).
	if j.HistogramTotal() != uint64(st.Ops)*uint64(8<<10) {
		t.Fatalf("histogram total %d != %d chunks * 8KB", j.HistogramTotal(), st.Ops)
	}
}
