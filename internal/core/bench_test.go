package core

import (
	"runtime"
	"testing"

	"repro/internal/cm"
	"repro/internal/noc"
)

// BenchmarkReadSet is the transaction read/write-set seam on sim: a Normal
// visible scan of a 1,024-account TArray over 48 cores (sim-bank-scc48's
// balance scan, read ahead in batches), the same 1,024 reads with keys 64
// words apart (one 64-word block each: the visible read set's worst case),
// and a ReadOnly TL2 attempt that reads 8 single-word objects. Besides ns/op
// and allocs/op (host cost of the whole transaction, lock requests and
// virtual-time kernel included; untimed warm attempts first, so neither
// depends on b.N) it reports B/key: the heap the runtime's
// reusable attempt and word arena keep once the last attempt ended, beyond
// what a fresh attempt and an empty arena keep, per key read. The carry row
// runs the visible scan and reports instead what the carry keeps once the
// last scan committed, with the runtime's free lock sets and what the
// message pools hold after one collection (as bench/'s heap sample takes
// it): the heap that dropping the carry and the free sets and emptying the
// pools frees, per key.
func BenchmarkReadSet(b *testing.B) {
	// warm is the untimed attempts first: the first fills the DTM nodes' lock
	// tables (entries, reader slices); the second's lock requests carry the
	// first's releases, whose keys grow the tables' free lists and the pooled
	// release messages' key slices. Later attempts allocate nothing in core.
	const warm = 2
	for _, tc := range []struct {
		name   string
		proto  Protocol
		keys   int
		stride int // words between two keys read; 1: a TArray scan
		carry  bool
	}{
		{"visible-scan-1024", ProtocolVisible, 1024, 1, false},
		{"visible-sparse-1024", ProtocolVisible, 1024, 64, false},
		{"tl2-readonly-8", ProtocolTL2, 8, 1, false},
		{"carry-scan-1024", ProtocolVisible, 1024, 1, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := NewSystem(Config{Platform: noc.SCC(0), Seed: 1, TotalCores: 48, Policy: cm.FairCM, Protocol: tc.proto})
			if err != nil {
				b.Fatal(err)
			}
			a := NewTArray(s, Uint64Codec(), tc.keys*tc.stride, 7)
			reader := firstApp(s)
			var r0 *Runtime
			var sum uint64
			b.ReportAllocs()
			// The bodies are built once: a closure built per attempt would be
			// the benchmark's own allocation.
			scan := func(tx *Tx) {
				for i := range tc.keys {
					sum += a.Get(tx, i)
				}
			}
			reads := func(tx *Tx) {
				for i := range tc.keys {
					sum += tx.Read(a.Addr(i * tc.stride))
				}
			}
			s.SpawnWorkers(func(rt *Runtime) {
				if rt.Core() != reader {
					return
				}
				r0 = rt
				for i := range b.N + warm {
					if i == warm {
						b.ResetTimer()
					}
					switch {
					case tc.proto == ProtocolTL2:
						rt.RunKind(ReadOnly, reads)
					case tc.stride == 1:
						rt.Run(scan)
					default:
						rt.Run(reads)
					}
				}
				b.StopTimer() // before the system winds down
				if tc.carry {
					// The carry's locks are never released: the system is
					// dropped with them.
					runtime.GC()
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					rt.carry, rt.rels, rt.lockSets = nil, nil, nil
					b.ReportMetric(float64(int64(ms.HeapAlloc)-liveHeap())/float64(tc.keys), "B/key")
				}
			})
			s.RunToCompletion()
			if sum != uint64(7*tc.keys*(b.N+warm)) {
				b.Fatalf("read %d in all, want %d", sum, 7*tc.keys*(b.N+warm))
			}
			if !tc.carry {
				with := liveHeap()
				r0.txScratch, r0.words = &Tx{rt: r0}, nil
				b.ReportMetric(float64(with-liveHeap())/float64(tc.keys), "B/key")
			}
			runtime.KeepAlive(s)
		})
	}
}

// liveHeap returns the bytes of live heap objects after two collections:
// the second frees what the first moved to the sync.Pools' victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
