package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
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

func TestParsePlatform(t *testing.T) {
	for in, want := range map[string]string{
		"scc": "SCC", "scc800": "SCC800", "opteron": "Opteron", "scc:0": "SCC", "scc:4": "SCC(setting 4)",
		"scc:5": "", "scc:7": "", "scc:-1": "", "scc:1x": "", "scc:": "", "scc 1": "", "tile": "",
	} {
		p, err := parsePlatform(in)
		if want == "" && err == nil {
			t.Errorf("parsePlatform(%q) accepted as %q", in, p.Name)
		}
		if want != "" && (err != nil || p.Name != want) {
			t.Errorf("parsePlatform(%q) = %q, %v; want %q", in, p.Name, err, want)
		}
	}
}

// TestBadInputExitsWithOneLine runs the command, re-executed from the test
// binary, on flag values the platform table or an app cannot take: each
// must print one "tm2c-sim:" line and exit 1, not panic or run anyway.
func TestBadInputExitsWithOneLine(t *testing.T) {
	if args := os.Getenv("TM2C_SIM_ARGS"); args != "" {
		os.Args = append([]string{"tm2c-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-platform scc:7", "-platform scc:-1", "-platform scc:1x",
		"-app hashset -buckets 0", "-app hashset -load 0", "-app list -elems 0",
		"-app mapreduce -chunk 0", "-app mapreduce -size -1", "-app bank -accounts 1",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadInputExitsWithOneLine$")
		cmd.Env = append(os.Environ(), "TM2C_SIM_ARGS="+args+" -duration 100us")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want 1", args, err)
		}
		if lines := strings.Split(strings.TrimSpace(string(out)), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "tm2c-sim: ") {
			t.Errorf("%s: output %q, want one tm2c-sim: line", args, out)
		}
	}
}
