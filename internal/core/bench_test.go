package core

import (
	"runtime"
	"testing"

	"repro/internal/cm"
	"repro/internal/noc"
)

// BenchmarkReadSet is the transaction read/write-set seam on sim: a Normal
// visible scan of a 1,024-account TArray over 48 cores (sim-bank-scc48's
// balance scan, read ahead in batches), and a ReadOnly TL2 attempt that
// reads 8 single-word objects. Besides ns/op and allocs/op (host cost of the
// whole transaction, lock requests and virtual-time kernel included) it
// reports B/key: the heap the runtime's reusable attempt and word arena keep
// once the last attempt ended, per key read.
func BenchmarkReadSet(b *testing.B) {
	for _, tc := range []struct {
		name  string
		proto Protocol
		keys  int
	}{{"visible-scan-1024", ProtocolVisible, 1024}, {"tl2-readonly-8", ProtocolTL2, 8}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := NewSystem(Config{Platform: noc.SCC(0), Seed: 1, TotalCores: 48, Policy: cm.FairCM, Protocol: tc.proto})
			if err != nil {
				b.Fatal(err)
			}
			a := NewTArray(s, Uint64Codec(), tc.keys, 7)
			reader := firstApp(s)
			var r0 *Runtime
			var sum uint64
			b.ReportAllocs()
			b.ResetTimer()
			s.SpawnWorkers(func(rt *Runtime) {
				if rt.Core() != reader {
					return
				}
				r0 = rt
				for range b.N {
					if tc.proto == ProtocolTL2 {
						rt.RunKind(ReadOnly, func(tx *Tx) {
							for i := range tc.keys {
								sum += tx.Read(a.Addr(i))
							}
						})
					} else {
						rt.Run(func(tx *Tx) {
							for i := range tc.keys {
								sum += a.Get(tx, i)
							}
						})
					}
				}
			})
			s.RunToCompletion()
			b.StopTimer()
			if sum != uint64(7*tc.keys*b.N) {
				b.Fatalf("read %d in all, want %d", sum, 7*tc.keys*b.N)
			}
			with := liveHeap()
			r0.txScratch, r0.words = nil, nil
			b.ReportMetric(float64(with-liveHeap())/float64(tc.keys), "B/key")
			runtime.KeepAlive(s)
		})
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
