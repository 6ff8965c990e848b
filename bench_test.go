// Benchmarks: end-to-end transaction micro-benchmarks on the public API.
// Wall-clock ns/op measures simulator cost, not SCC performance; figures
// regenerate with `go run ./cmd/tm2c-bench`, and the repo benchmark with
// its per-layer micro pass lives in bench/.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

// BenchmarkTransactionRoundTrip measures the simulator cost of one complete
// read-modify-write transaction (two reads, two writes, commit) end to end.
func BenchmarkTransactionRoundTrip(b *testing.B) {
	for _, cores := range []int{8, 48} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			sys, err := repro.NewSystem(repro.Config{
				TotalCores: cores,
				Policy:     repro.FairCM,
				Seed:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			base := sys.Mem.Alloc(1024, 0)
			perCore := b.N/sys.NumAppCores() + 1
			sys.SpawnWorkers(func(rt *repro.Runtime) {
				r := rt.Rand()
				for i := 0; i < perCore; i++ {
					from := repro.Addr(r.Intn(1024))
					to := repro.Addr(r.Intn(1024))
					rt.Run(func(tx *repro.Tx) {
						f := tx.Read(base + from)
						t := tx.Read(base + to)
						tx.Write(base+from, f-1)
						tx.Write(base+to, t+1)
					})
				}
			})
			b.ResetTimer()
			st := sys.RunToCompletion()
			b.ReportMetric(float64(st.Commits)/b.Elapsed().Seconds(), "commits/s")
			b.ReportMetric(float64(sys.K.EventsRun())/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkElasticModes compares the simulator cost of the three
// transaction kinds on a list traversal.
func BenchmarkElasticModes(b *testing.B) {
	for _, kind := range []repro.TxKind{repro.Normal, repro.ElasticEarly, repro.ElasticRead} {
		b.Run(kind.String(), func(b *testing.B) {
			sys, err := repro.NewSystem(repro.Config{TotalCores: 8, Policy: repro.FairCM, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// 64-node chain.
			nodes := make([]repro.Addr, 64)
			for i := range nodes {
				nodes[i] = sys.Mem.Alloc(2, 0)
				sys.Mem.WriteRaw(nodes[i], uint64(i))
				if i > 0 {
					sys.Mem.WriteRaw(nodes[i-1]+1, uint64(nodes[i]))
				}
			}
			perCore := b.N/sys.NumAppCores() + 1
			sys.SpawnWorkers(func(rt *repro.Runtime) {
				for i := 0; i < perCore; i++ {
					rt.RunKind(kind, func(tx *repro.Tx) {
						cur := nodes[0]
						for cur != 0 {
							n := tx.ReadN(cur, 2)
							cur = repro.Addr(n[1])
						}
					})
				}
			})
			b.ResetTimer()
			sys.RunToCompletion()
		})
	}
}
