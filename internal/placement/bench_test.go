package placement

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The benchmarks and the allocation test share bench/'s microPlacement
// shape: uniform keys of a 2^20-word working set, two nodes in two
// clusters, an epoch every 1024 records — live-place-hier's directory load.
const benchWords = 1 << 20

func benchDirectory(tb testing.TB, kind Kind) *Directory {
	tb.Helper()
	d, err := New(Config{
		Nodes: 2, Kind: kind, RegionWords: benchWords,
		Clusters: []int{0, 1}, EvalEvery: 1024,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// uniformKeys returns n uniformly drawn keys; n is a power of two so the
// loops below index it with a mask.
func uniformKeys(n int) []mem.Addr {
	r := sim.NewRand(1)
	keys := make([]mem.Addr, n)
	for i := range keys {
		keys[i] = mem.Addr(r.Intn(benchWords))
	}
	return keys
}

var benchSink int

// TestRecordSteadyStateAllocFree states the heat plane's claim: once the
// leaf pool and the epoch scratch have reached their working size, resolving
// and recording a uniform stream — a leaf split for nearly every key, a
// merge two epochs later — allocates nothing.
func TestRecordSteadyStateAllocFree(t *testing.T) {
	d := benchDirectory(t, AdaptiveHier)
	keys := uniformKeys(1 << 16)
	i := 0
	step := func() {
		k := keys[i&(len(keys)-1)]
		benchSink += d.Owner(k)
		d.Record(i&1, k)
		i++
	}
	for i < 16*1024 { // 16 epochs of warm-up
		step()
	}
	if got := testing.AllocsPerRun(32*1024, step); got >= 0.05 {
		t.Errorf("steady-state Owner+Record allocates %.3f times per key, want < 0.05", got)
	}
	if d.Merges == 0 || d.MaterializedLeaves() == 0 {
		t.Errorf("stream never cycled leaves (%d merges, %d materialized): not the case under test", d.Merges, d.MaterializedLeaves())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkResolveParallel is the number that shows the mutex is gone:
// Resolve from every P at once, against a snapshot holding overrides.
func BenchmarkResolveParallel(b *testing.B) {
	keys := uniformKeys(1 << 12)
	for _, kind := range Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			d := benchDirectory(b, kind)
			for s := 0; s < 64; s++ { // 64 stripes off their default owner
				if d.InitiateMove(s*1000, 1-s%2) {
					d.CompleteHandoff(s * 1000)
				}
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				sum := 0
				for i := 0; pb.Next(); i++ {
					owner, epoch := d.Resolve(keys[i&(len(keys)-1)])
					sum += owner + int(epoch)
				}
				benchSink += sum
			})
		})
	}
}

// BenchmarkRecordUniform is one lock request's directory work on a uniform
// working set: resolve, record, and every 1024th call an epoch evaluation.
func BenchmarkRecordUniform(b *testing.B) {
	keys := uniformKeys(1 << 16)
	for _, kind := range []Kind{Adaptive, AdaptiveHier} {
		b.Run(kind.String(), func(b *testing.B) {
			d := benchDirectory(b, kind)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := keys[i&(len(keys)-1)]
				benchSink += d.Owner(k)
				d.Record(i&1, k)
			}
		})
	}
}

// BenchmarkEvaluate closes one epoch over 700 materialized leaves — about
// what live-place-hier holds — each re-heated first so none merges away.
func BenchmarkEvaluate(b *testing.B) {
	d := benchDirectory(b, AdaptiveHier)
	d.nextEval = ^uint64(0) // evaluate only when the loop says so
	hot := make([]mem.Addr, 700)
	for i := range hot {
		hot[i] = mem.Addr(i * d.LeafSpan())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.Record(0, hot...)
		d.Record(1, hot...)
		b.StartTimer()
		d.mu.Lock()
		d.evaluate()
		d.mu.Unlock()
	}
	if got := d.MaterializedLeaves(); got != len(hot) {
		b.Fatalf("%d leaves materialized, want %d", got, len(hot))
	}
}
