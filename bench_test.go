// Benchmarks: one testing.B target per table/figure of the paper (run via
// the internal/exp harness at a reduced scale so `go test -bench=.`
// completes in minutes) plus end-to-end transaction micro-benchmarks on the
// public API.
//
// The figure benches report virtual-time throughput of the headline series
// as ops/vms (operations per virtual millisecond) where that is meaningful;
// wall-clock ns/op measures simulator cost, not SCC performance. Full-scale
// figure regeneration is `go run ./cmd/tm2c-bench -run all -scale full`.
package repro_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro"
	"repro/internal/exp"
)

// benchScale keeps every figure bench in the tens-of-milliseconds range.
var benchScale = exp.Scale{
	Duration: 1500 * time.Microsecond,
	SizeDiv:  16,
	Cores:    []int{8, 24},
	Seed:     1,
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var firstVal float64
	for i := 0; i < b.N; i++ {
		tables := e.Run(benchScale, exp.Overrides{})
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
		row := tables[0].Rows[len(tables[0].Rows)-1]
		if v, err := strconv.ParseFloat(row[len(row)-1], 64); err == nil {
			firstVal = v
		}
	}
	if firstVal != 0 {
		b.ReportMetric(firstVal, "headline")
	}
}

// §5.1 settings table.
func BenchmarkSettingsTable(b *testing.B) { benchExperiment(b, "settings") }

// Figure 4: hash table.
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B) { benchExperiment(b, "fig4c") }

// Figure 5: bank.
func BenchmarkFig5a(b *testing.B) { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B) { benchExperiment(b, "fig5c") }
func BenchmarkFig5d(b *testing.B) { benchExperiment(b, "fig5d") }

// Figure 6: MapReduce.
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }

// Figure 7: elastic transactions on the linked list.
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }

// Figure 8: portability (SCC vs SCC800 vs Opteron).
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B) { benchExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B) { benchExperiment(b, "fig8d") }

// Ablations beyond the paper.
func BenchmarkAblationBatching(b *testing.B)    { benchExperiment(b, "ablbatch") }
func BenchmarkAblationPollCost(b *testing.B)    { benchExperiment(b, "ablpoll") }
func BenchmarkAblationGranularity(b *testing.B) { benchExperiment(b, "ablgran") }

// Extensions beyond the paper.
func BenchmarkExtensionSkipList(b *testing.B)    { benchExperiment(b, "extskip") }
func BenchmarkExtensionIrrevocable(b *testing.B) { benchExperiment(b, "extirrev") }

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
