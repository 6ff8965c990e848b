package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// loadBounds reads each gated metric's regression bound from BENCHMARK.json
// in the working directory, which the benchmark command runs in (the
// checkout root).
func loadBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading the contract: %w (run from the repository root)", err)
	}
	var c struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range gated {
		if bounds[d.name] <= 0 {
			return nil, fmt.Errorf("BENCHMARK.json: no bound for %s", d.name)
		}
	}
	return bounds, nil
}

// worse returns by what share of a's value b is worse than a (negative when
// b is better).
func worse(higherBetter bool, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if higherBetter {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runAA answers "do two sets of runs of the same code agree?": n rounds of
// (set A over the workloads, set B over the workloads), both sets with the
// same seeds. It fails when the two medians of a gated metric differ by more
// than half its bound, or — for a sim workload's virtual-time metrics — when
// two runs of one seed differ at all. The host-time metrics are printed
// beside them without a verdict.
func runAA(selected []*spec, o options, n int) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sets := [2]map[string]map[string][]float64{{}, {}} // set -> workload -> metric -> values
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, sp := range selected {
				ro := o
				ro.seed = o.seed + uint64(i)
				r := runWorkload(sp, ro)
				if !r.Correct {
					fmt.Printf("%s FAILED: %s\n", sp.name, r.Error)
					return 1
				}
				if sets[set][sp.name] == nil {
					sets[set][sp.name] = map[string][]float64{}
				}
				for name, v := range r.Metrics {
					sets[set][sp.name][name] = append(sets[set][sp.name][name], v)
				}
				fmt.Printf("# aa run %d set %c %s done\n", i, 'A'+set, sp.name)
			}
		}
	}
	exact := map[string]bool{}
	for _, name := range virtualExact {
		exact[name] = true
	}
	code := 0
	fmt.Printf("%-22s %-22s %14s %14s %8s %8s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "iqr A", "iqr B", "diff", "bound", "verdict")
	for _, sp := range selected {
		for _, d := range endToEnd {
			a, b := sets[0][sp.name][d.name], sets[1][sp.name][d.name]
			ma, mb := median(a), median(b)
			diff := math.Abs(worse(d.higher, ma, mb))
			bound, isGated := bounds[d.name]
			verdict := "ok"
			switch {
			case sp.virtPerWall > 0 && exact[d.name]:
				for i := range a {
					if a[i] != b[i] {
						verdict = "NOT BIT-IDENTICAL"
					}
				}
			case !isGated:
				verdict = "not gated"
			case diff > bound/2:
				verdict = "DISAGREE"
			}
			if verdict != "ok" && verdict != "not gated" {
				code = 1
			}
			fmt.Printf("%-22s %-22s %14.6g %14.6g %7.2f%% %7.2f%% %6.2f%% %6.1f%%  %s\n",
				sp.name, d.name, ma, mb, 100*spread(a), 100*spread(b), 100*diff, 100*bound, verdict)
		}
	}
	return code
}

// readRuns loads a -json file: workload -> runs in file order.
func readRuns(path string) (map[string][]*runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]*runResult{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Correct && !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], &r)
		}
	}
	return runs, sc.Err()
}

// minPairs is the fewest alternating pairs a verdict may rest on.
const minPairs = 10

// compareFiles applies the pairing rule to two -json files whose runs were
// made alternately (old, new, new, old, ...): the i-th old run is paired
// with the i-th new run of the same workload. With fewer than minPairs pairs
// every metric is unresolved. Otherwise a metric regressed when the new
// median is worse by more than the bound; it improved when the new side wins
// at least nine tenths of the pairs (ties count for neither) and the medians
// differ by more than the old side's inter-quartile range; else it is
// unchanged — or unresolved when the old side's own spread exceeds the
// bound, unless every new run reads better than every old run. Exits 1 if
// anything regressed.
func compareFiles(oldPath, newPath string) int {
	bounds, err := loadBounds()
	var olds, news map[string][]*runResult
	if err == nil {
		olds, err = readRuns(oldPath)
	}
	if err == nil {
		news, err = readRuns(newPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code, compared := 0, false
	fmt.Printf("%-22s %-22s %5s %14s %14s %8s %9s %6s  %s\n", "workload", "metric", "pairs", "median old", "median new", "iqr old", "new worse", "wins", "verdict")
	for _, sp := range specs {
		o, n := olds[sp.name], news[sp.name]
		pairs := min(len(o), len(n))
		for _, d := range endToEnd {
			if pairs == 0 {
				break
			}
			compared = true
			var ov, nv []float64
			for i := 0; i < pairs; i++ {
				ov, nv = append(ov, o[i].Metrics[d.name]), append(nv, n[i].Metrics[d.name])
			}
			bound, isGated := bounds[d.name]
			if !isGated {
				bound = ungatedBound
			}
			verdict, wins := pairVerdict(d.higher, ov, nv, bound)
			if verdict == "REGRESSED" {
				code = 1
			}
			mo, mn := median(ov), median(nv)
			fmt.Printf("%-22s %-22s %5d %14.6g %14.6g %7.2f%% %+8.2f%% %3d/%-2d  %s\n",
				sp.name, d.name, pairs, mo, mn, 100*spread(ov), 100*worse(d.higher, mo, mn), wins, pairs, verdict)
		}
	}
	if !compared {
		fmt.Fprintln(os.Stderr, "bench: the files share no workload with a correct untraced run")
		return 2
	}
	return code
}

// pairVerdict judges one metric of one workload from its paired old and new
// values, and counts the pairs the new side won.
func pairVerdict(higherBetter bool, ov, nv []float64, bound float64) (verdict string, wins int) {
	allBetter := true
	for i, a := range ov {
		if worse(higherBetter, a, nv[i]) < 0 {
			wins++
		}
		for _, b := range nv {
			if worse(higherBetter, a, b) >= 0 {
				allBetter = false
			}
		}
	}
	mo, mn := median(ov), median(nv)
	q1, q3 := quartiles(ov)
	change := worse(higherBetter, mo, mn)
	switch {
	case len(ov) < minPairs:
		return fmt.Sprintf("unresolved (n<%d pairs)", minPairs), wins
	case change > bound:
		return "REGRESSED", wins
	case change < 0 && float64(wins) >= 0.9*float64(len(ov)) && math.Abs(mn-mo) > q3-q1:
		return "improved", wins
	case spread(ov) > bound && !allBetter:
		return "unresolved", wins
	}
	return "unchanged", wins
}
