package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/apps/bank"
)

// TestReportPlacementLine: the placement kind that keeps a directory
// reports its counters — among them how many epochs the heat plane spent
// awake, the one-line answer to "is placement paying?" — and hash has none
// and prints its bare name.
func TestReportPlacementLine(t *testing.T) {
	counters := []string{"epoch ", "awake ", "rounds", "migrations", "stale NACKs", "% remote accesses"}
	for _, tc := range []struct {
		kind repro.PlacementKind
		want []string
	}{
		{repro.PlacementHash, nil},
		{repro.PlacementHier, counters},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			sys, err := repro.NewSystem(repro.Config{
				Seed: 1, TotalCores: 8, Policy: repro.FairCM,
				Placement: tc.kind, RepartitionEpoch: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			b := bank.New(sys, 64)
			sys.SpawnWorkers(b.ZipfTransferWorker(0, 1.1))
			st := sys.Run(3 * time.Millisecond)

			var out strings.Builder
			report(&out, sys, st)
			var line string
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(l, "placement ") {
					line = l
				}
			}
			if !strings.Contains(line, tc.kind.String()) {
				t.Fatalf("no placement line naming %v in:\n%s", tc.kind, out.String())
			}
			if tc.want == nil && strings.Contains(line, ":") {
				t.Errorf("hash placement line carries counters: %q", line)
			}
			for _, w := range tc.want {
				if !strings.Contains(line, w) {
					t.Errorf("placement line %q lacks %q", line, w)
				}
			}
			if tc.want != nil {
				if st.PlacementEpochs == 0 || st.AwakeEpochs == 0 || st.AwakeEpochs > st.PlacementEpochs {
					t.Errorf("zipf-1.1 bank: awake %d of %d epochs, want some and not more than all", st.AwakeEpochs, st.PlacementEpochs)
				}
				if want := fmt.Sprintf("awake %d/%d epochs", st.AwakeEpochs, st.PlacementEpochs); !strings.Contains(line, want) {
					t.Errorf("placement line %q lacks %q", line, want)
				}
			}
			for _, w := range []string{"throughput", "node load", "wire messages"} {
				if !strings.Contains(out.String(), w) {
					t.Errorf("report lacks the %q line", w)
				}
			}
		})
	}
}
