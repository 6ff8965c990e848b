// Command bench is the repository's benchmark: five long-running workloads
// over the three backends, noise-bounded end-to-end metrics, and a traced
// pass that attributes time to layers. README.md explains the workloads and
// the metrics; BENCHMARK.json at the repository root is the contract.
//
//	bench -workload live-bank -seed 1 -seconds 15 -trace 0   one run, contract JSON on the last line
//	bench                                                    every workload once
//	bench -trace 1                                           per-layer metrics instead
//	bench -aa 5                                              do two sets of runs of this binary agree?
//	bench -compare old.jsonl new.jsonl                       paired verdicts from two -json files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// options are the knobs of one run.
type options struct {
	seed    uint64
	seconds float64       // the untraced run's timed window
	warmup  time.Duration // the untraced run's warm-up
	trace   bool
	outDir  string
	// micro holds the micro step's metrics once a traced run has measured
	// them. They do not depend on the workload, so the runs that share one
	// options value — a process that runs several workloads — measure them
	// once.
	micro *map[string]float64
}

// A traced run spends its time differently from an untraced one: tracedRounds
// short rounds, traced and untraced in turn (the difference is the tracing
// overhead), each with a tenth of the window and a sixth of the warm-up, and
// then the micro step, whose loops each run for a fifteenth of -seconds: one
// second under the contract's 15.
const tracedRounds = 4

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	LatencyN  uint64             `json:"latency_samples"`
	Host      hostInfo           `json:"host"`
	Error     string             `json:"error,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runWorkload executes one run and reports a broken check as the result's
// Error rather than as a panic or an exit.
func runWorkload(sp *spec, o options) *runResult {
	if sp.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	}
	res := &runResult{Workload: sp.name, Seed: o.seed, Trace: o.trace, Host: host(), Metrics: map[string]float64{}}
	if err := measure(sp, o, res); err != nil {
		res.Error = err.Error()
		return res
	}
	res.Correct = true
	return res
}

func (res *runResult) count(r *roundResult) {
	res.Attempted += r.ops
	res.Failed += r.failed
	res.LatencyN += r.lat.n
}

// measure fills res. An untraced run is one round — one life of the
// workload's system — and measures the end-to-end metrics; a traced run
// reports the per-layer metrics.
func measure(sp *spec, o options, res *runResult) error {
	window := time.Duration(o.seconds * float64(time.Second))
	sockDir := filepath.Join(o.outDir, fmt.Sprintf("sock%d", os.Getpid()))
	if o.trace {
		if err := measureTraced(sp, o, res, sockDir); err != nil {
			return err
		}
	} else {
		r, err := runRound(sp, o.seed, roundCfg{warmup: o.warmup, window: window}, sockDir)
		if err != nil {
			return err
		}
		res.count(r)
		res.Metrics = endToEndOf(r)
	}
	if sp.virtPerWall > 0 {
		return simDeterminism(sp, o.seed, min(window, 300*time.Millisecond))
	}
	return nil
}

// measureTraced runs the traced rounds and the micro step, checks and writes
// the span sample, and fills res with the per-layer metrics: each the median
// of the rounds that measured it.
func measureTraced(sp *spec, o options, res *runResult, sockDir string) error {
	rc := roundCfg{warmup: o.warmup / 6, window: time.Duration(o.seconds / 10 * float64(time.Second))}
	rounds := map[string][]float64{}
	var tputTraced []float64
	var kept []span
	for k := 0; k < tracedRounds; k++ {
		rc.traced = k%2 == 0
		r, err := runRound(sp, o.seed, rc, sockDir)
		if err != nil {
			return err
		}
		res.count(r)
		e2e := endToEndOf(r)
		if rc.traced {
			tputTraced = append(tputTraced, e2e["tput_ops_per_s"])
			for name, v := range layersOf(r) {
				rounds[name] = append(rounds[name], v)
			}
			kept = r.kept
			continue
		}
		for _, d := range hostTime {
			rounds["bench."+d.name] = append(rounds["bench."+d.name], e2e[d.name])
		}
	}
	for name, vs := range rounds {
		res.Metrics[name] = median(vs)
	}
	res.Metrics["bench.trace_overhead_pct"] = 100 * (1 - ratio(median(tputTraced), res.Metrics["bench.tput_ops_per_s"]))
	if err := checkSpans(kept); err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(o.outDir, sp.name+".trace.jsonl"), sp.name, kept); err != nil {
		return err
	}
	if *o.micro == nil {
		mm, err := micro(o.outDir, time.Duration(o.seconds/15*float64(time.Second)))
		if err != nil {
			return err
		}
		*o.micro = mm
	}
	for name, v := range *o.micro {
		res.Metrics[name] = v
	}
	return nil
}

// simDeterminism is the sim workloads' end-of-run check: two short rounds
// with one seed must agree on every virtual-time metric and counter.
func simDeterminism(sp *spec, seed uint64, window time.Duration) error {
	rc := roundCfg{warmup: 20 * time.Millisecond, window: window}
	a, err := runRound(sp, seed, rc, "")
	if err != nil {
		return err
	}
	b, err := runRound(sp, seed, rc, "")
	if err != nil {
		return err
	}
	ma, mb := endToEndOf(a), endToEndOf(b)
	for _, name := range virtualExact {
		if ma[name] != mb[name] {
			return fmt.Errorf("%s: not deterministic: %s = %v then %v with seed %d", sp.name, name, ma[name], mb[name], seed)
		}
	}
	if a.stats.Commits != b.stats.Commits || a.stats.Aborts != b.stats.Aborts || a.stats.Msgs != b.stats.Msgs || a.simEvents != b.simEvents {
		return fmt.Errorf("%s: not deterministic: counters differ between two runs of seed %d", sp.name, seed)
	}
	return nil
}

// defs returns the metric list a run measures.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractDefs returns the metrics of a run that BENCHMARK.json lists.
func contractDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return gated
}

// printRun prints every metric by name with its value and unit; an untraced
// run's host-time metrics are marked as the ones BENCHMARK.json does not gate.
func printRun(r *runResult) {
	h := r.Host
	fmt.Printf("# %s seed=%d trace=%t nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	if r.Error != "" {
		fmt.Printf("%s FAILED: %s\n", r.Workload, r.Error)
		return
	}
	for i, d := range defs(r.Trace) {
		note := ""
		if !r.Trace && i >= len(gated) {
			note = "  (not gated)"
		}
		fmt.Printf("%-22s %-36s %14.6g %s%s\n", r.Workload, d.name, r.Metrics[d.name], d.unit, note)
	}
	fmt.Printf("%-22s attempted=%d failed=%d latency_samples=%d checks=ok\n", r.Workload, r.Attempted, r.Failed, r.LatencyN)
}

// contractLine is the last line of a -workload run.
func contractLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range contractDefs(r.Trace) {
		out.Metrics[d.name] = mv{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}

func appendJSON(path string, r *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "", "run only this workload and end with the contract's JSON line (default: all five)")
		traceN   = flag.Int("trace", 0, "1: traced pass reporting the per-layer metrics; 0: end-to-end metrics")
		aa       = flag.Int("aa", 0, "A/A mode: two interleaved sets of `N` runs per workload; non-zero exit if they disagree")
		compare  = flag.Bool("compare", false, "compare two -json files (old new) by the pairing rule")
		jsonOut  = flag.String("json", "", "append every run's full result to this `file` as a JSON line")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed of Config.Seed and the op streams (2 is the held-out seed)")
	flag.Float64Var(&o.seconds, "seconds", 15, "timed window of a run, seconds")
	flag.DurationVar(&o.warmup, "warmup", 3*time.Second, "warm-up before the window")
	o.outDir = "bench/out"
	o.micro = new(map[string]float64)
	flag.Parse()
	o.trace = *traceN != 0
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0")
		os.Exit(2)
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.jsonl new.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	selected := specs
	if *workload != "" {
		sp := findSpec(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []*spec{sp}
	}
	if *aa > 0 {
		os.Exit(runAA(selected, o, *aa))
	}

	code := 0
	var last *runResult
	for _, sp := range selected {
		r := runWorkload(sp, o)
		printRun(r)
		if *jsonOut != "" {
			if err := appendJSON(*jsonOut, r); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		if !r.Correct {
			code = 1
		}
		last = r
	}
	if *workload != "" {
		fmt.Println(contractLine(last))
	}
	os.Exit(code)
}
