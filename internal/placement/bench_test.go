package placement

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/port"
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
	r := port.NewRand(1)
	keys := make([]mem.Addr, n)
	for i := range keys {
		keys[i] = mem.Addr(r.Intn(benchWords))
	}
	return keys
}

var benchSink int

// TestRecordSteadyStateAllocFree states the awake heat plane's claim: once
// the leaf pool and the epoch scratch have reached their working size,
// resolving and recording allocates nothing while leaves split and merge.
// Two accesses in three hit stripe 0 — hotter than its node's excess over the
// mean, so it can never move and the plane stays awake without migrating —
// and the third is a uniform key of the other node: a leaf split for nearly
// each, a merge at the end of the epoch. (The dormant plane's zero is a case
// of TestHeatPlaneSleepsAndWakes.)
func TestRecordSteadyStateAllocFree(t *testing.T) {
	d := benchDirectory(t, AdaptiveHier)
	keys := uniformKeys(1 << 16)
	i := 0
	step := func() {
		k := mem.Addr(0)
		if i%3 == 0 {
			k = keys[i&(len(keys)-1)] | 1
		}
		benchSink += d.Owner(k)
		d.Record(i&1, k)
		i++
	}
	for i < 16*1024 { // 16 epochs of warm-up
		step()
	}
	if got := testing.AllocsPerRun(32*1024, step); got != 0 {
		t.Errorf("steady-state Owner+Record allocates %.3f times per key, want 0", got)
	}
	if d.AwakeEpochs+1 != d.Evaluated || d.Migrations != 0 {
		t.Errorf("awake %d of %d epochs with %d migrations, want all but the first and none: not the case under test", d.AwakeEpochs, d.Evaluated, d.Migrations)
	}
	if d.Merges == 0 || d.MaterializedLeaves() < 2 {
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
// working set, where the heat plane stays dormant: resolve, a coarse-tier
// record, and every 1024th call an O(nodes) epoch evaluation.
func BenchmarkRecordUniform(b *testing.B) {
	keys := uniformKeys(1 << 16)
	d := benchDirectory(b, AdaptiveHier)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		benchSink += d.Owner(k)
		d.Record(i&1, k)
	}
}

// BenchmarkEvaluate closes one awake epoch over 700 materialized leaves,
// each re-heated first so none merges away. Every hot stripe is node 0's, so
// the plane stays awake.
func BenchmarkEvaluate(b *testing.B) {
	d := benchDirectory(b, AdaptiveHier)
	d.nextEval = ^uint64(0) // evaluate only when the loop says so
	d.awake = true
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
