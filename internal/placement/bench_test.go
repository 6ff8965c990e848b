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
// the stripe map and the epoch scratch have reached their working size,
// resolving and recording allocates nothing while stripes enter and leave
// the map. Two accesses in three hit stripe 0 — hotter than its node's
// excess over the mean, so it can never move and the plane stays awake
// without migrating — and the third is a uniform key of the other node: a
// new entry for nearly each, deleted at the end of the epoch. (The dormant
// plane's zero is a case of TestHeatPlaneSleepsAndWakes.)
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
	if n := d.HeatStripes(); n < 2 || n > 2*(1024+1) {
		t.Errorf("%d heat stripes after ~16k one-touch keys: the stream did not cycle stripes through the map, not the case under test", n)
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

// BenchmarkEvaluate closes one awake epoch over 700 hot stripes of node 0,
// each re-heated first so none decays away; every hot stripe is node 0's, so
// the plane stays awake. The sparse row spaces them 256 stripes apart, the
// dense row packs them into 1,400 adjacent addresses (node 0 owns the even
// ones). Before each round, untimed, the stripes the last epoch froze are
// handed off and moved back home, so every round starts from the same
// ownership and freezes the same moves: allocs/op do not depend on b.N.
func BenchmarkEvaluate(b *testing.B) {
	for _, tc := range []struct {
		name   string
		stride int
	}{{"sparse", 256}, {"dense", 2}} {
		b.Run(tc.name, func(b *testing.B) {
			d := benchDirectory(b, AdaptiveHier)
			d.nextEval = ^uint64(0) // evaluate only when the loop says so
			d.awake = true
			hot := make([]mem.Addr, 700)
			for i := range hot {
				hot[i] = mem.Addr(i * tc.stride)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for n := range 2 {
					for _, s := range d.Snapshot().PendingFor(n) {
						d.CompleteHandoff(s)
						if d.InitiateMove(s, n) {
							d.CompleteHandoff(s)
						}
					}
				}
				d.Record(0, hot...)
				d.Record(1, hot...)
				b.StartTimer()
				d.mu.Lock()
				d.evaluate()
				d.mu.Unlock()
			}
			if got := d.HeatStripes(); got != len(hot) {
				b.Fatalf("%d heat stripes, want %d", got, len(hot))
			}
		})
	}
}
