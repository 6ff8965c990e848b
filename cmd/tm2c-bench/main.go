// Command tm2c-bench regenerates the tables and figures of the TM2C paper's
// evaluation (§5-§7).
//
// Usage:
//
//	tm2c-bench -list
//	tm2c-bench -run fig5a
//	tm2c-bench -run all -scale quick
//	tm2c-bench -run fig8a,fig8b -scale full -csv
//	tm2c-bench -run fig5a -coalesce
//	tm2c-bench -run fig5a -placement hier
//	tm2c-bench -run abltl2 -scale quick
//	tm2c-bench -run fig5a -protocol tl2
//	tm2c-bench -run fig5a -scale quick -backend live
//
// Scales: quick (seconds), default (a few minutes), full (closest to the
// paper's parameters; tens of minutes), large (million-object working sets
// on a 256-core mesh — the scale dimension of the scaleplace experiment).
// Results print as aligned text tables, or CSV with -csv. -coalesce enables
// the coalescing message plane (per-destination wire batching,
// Config.Coalesce) in every experiment. -placement forces an object→DTM-node
// placement policy in every experiment; scaleplace compares hash and hier.
// -protocol forces a read-visibility protocol (visible | tl2) in every
// experiment; the abltl2 ablation compares the two protocols directly.
// -backend selects the execution backend: the deterministic simulator
// (sim, the default; durations are virtual and reproducible), the
// real-concurrency goroutine backend (live; durations are wall-clock and
// throughput columns read operations per wall millisecond), or the
// cross-process backend (net; like live but the cores are spread over
// -groups OS processes connected by framed sockets — rank 0 forks the
// worker ranks by default, or launch each rank standalone with
// -peers/-rank/-listen). -timings reports each experiment's elapsed time.
// -trace-dir enables the flight recorder in every experiment and writes one
// chrome://tracing JSON per system run into the directory. -pprof serves
// net/http/pprof while the experiments run and dumps runtime/metrics at
// quiesce.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netboot"
	"repro/internal/trace"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		run       = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale     = flag.String("scale", "default", "quick | default | full | large")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		timings   = flag.Bool("timings", false, "print wall-clock time per experiment")
		traceDir  = flag.String("trace-dir", "", "directory to write one chrome trace_event JSON per system run into (enables the flight recorder)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) and dump runtime/metrics after the experiments finish")
		allocProf = flag.String("allocprofile", "", "write a pprof allocs profile to this file after the experiments finish")
		// The system knobs shared with tm2c-sim; a set one is forced onto
		// every system of every experiment.
		sysFlags   = core.BindFlags(flag.CommandLine)
		resolveNet = netboot.BindFlags(flag.CommandLine)
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "tm2c-bench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// What the command line forces on every system, read off a Config that
	// starts at the flags' defaults (sim backend, seed 1).
	forced := core.Config{Seed: 1}
	sysFlags(&forced)
	backend := forced.Backend

	// Net backend: resolve this process's place in the process group. In the
	// default fork mode rank 0 spawns the worker ranks below; forked children
	// and standalone rank>0 processes run the identical experiment sequence
	// but suppress the rank-0-only reporting.
	var plan *netboot.Plan
	isChild := false
	if backend == core.BackendNet {
		var err error
		plan, err = resolveNet()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: %v\n", err)
			os.Exit(2)
		}
		isChild = plan.Rank != 0
	}

	var traceOpts *trace.Options
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: %v\n", err)
			os.Exit(1)
		}
		// On the net backend every process records its own cores; a rank
		// prefix keeps the per-process files from clobbering each other.
		prefix := "run-"
		if plan != nil {
			prefix = fmt.Sprintf("run-r%d-", plan.Rank)
		}
		traceOpts = &trace.Options{Sink: traceSink(*traceDir, prefix)}
	}
	ov := exp.Overrides{Sys: func(c *core.Config) {
		sysFlags(c)
		c.Trace = traceOpts
		if plan != nil {
			// A fresh NetConfig per system: normalization must not mutate
			// one shared across runs.
			c.Net = plan.NetConfig()
		}
	}}

	if *list {
		for _, e := range exp.All {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var sc exp.Scale
	switch *scale {
	case "quick":
		sc = exp.Quick
	case "default":
		sc = exp.Default
	case "full":
		sc = exp.Full
	case "large":
		sc = exp.Large
	default:
		fmt.Fprintf(os.Stderr, "tm2c-bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Seed = forced.Seed

	// Every ID resolves before anything runs or forks: a typo must not cost
	// the experiments listed before it, nor leave worker ranks behind.
	exps, err := resolveExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tm2c-bench: %v\n", err)
		os.Exit(2)
	}

	maxCores := 0
	for _, n := range sc.Cores {
		if n > maxCores {
			maxCores = n
		}
	}
	perProc := maxCores
	if plan != nil {
		// Each process only runs its own rank's share of the cores.
		perProc = (maxCores + plan.Ranks - 1) / plan.Ranks
	}
	if w := netboot.OversubscriptionWarning(perProc, runtime.GOMAXPROCS(0), backend); w != "" && !isChild {
		fmt.Fprintln(os.Stderr, "tm2c-bench: "+w)
	}

	if plan != nil {
		if err := plan.Fork(); err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, e := range exps {
		start := time.Now()
		tables := e.Run(sc, ov)
		elapsed := time.Since(start)
		if isChild {
			// Worker ranks participate in every system but rank 0 owns the
			// merged stats report.
			continue
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s — %s\n", t.ID, t.Title)
				t.CSV(os.Stdout)
				fmt.Println()
			} else {
				t.Render(os.Stdout)
			}
		}
		if *timings {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", e.ID, elapsed.Round(time.Millisecond))
		}
	}
	if plan != nil {
		if err := plan.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *pprofAddr != "" {
		dumpRuntimeMetrics(os.Stderr)
	}
	if *allocProf != "" {
		if err := writeAllocProfile(*allocProf); err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// resolveExperiments maps -run's value ("all" or comma-separated IDs) to
// the registered experiments, in the order given.
func resolveExperiments(run string) ([]*exp.Experiment, error) {
	if run == "all" {
		return exp.All, nil
	}
	var exps []*exp.Experiment
	for _, id := range strings.Split(run, ",") {
		e, ok := exp.ByID(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// writeAllocProfile dumps the cumulative allocation profile at quiesce — the
// no-server companion to -pprof for environments where scraping an HTTP
// endpoint mid-run is impractical.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush the most recent allocation records
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceSink returns an Options.Sink that writes every system run's merged
// trace as a sequentially-numbered chrome trace_event file in dir. The
// counter is mutex-guarded: live-backend experiments may finish runs from
// more than one goroutine.
func traceSink(dir, prefix string) func(*trace.Trace) {
	var mu sync.Mutex
	var n int
	return func(t *trace.Trace) {
		mu.Lock()
		seq := n
		n++
		mu.Unlock()
		path := filepath.Join(dir, fmt.Sprintf("%s%04d.json", prefix, seq))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: trace: %v\n", err)
			return
		}
		err = trace.WriteChrome(f, t)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tm2c-bench: trace %s: %v\n", path, err)
		}
	}
}

// dumpRuntimeMetrics prints the Go runtime's own health counters at quiesce
// — scheduler latency, GC cycles, heap size — so a profiling session ends
// with the numbers that contextualize its pprof captures.
func dumpRuntimeMetrics(w *os.File) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	fmt.Fprintln(w, "--- runtime/metrics at quiesce ---")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%-60s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%-60s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var count uint64
			for _, c := range h.Counts {
				count += c
			}
			fmt.Fprintf(w, "%-60s histogram, %d samples\n", s.Name, count)
		}
	}
}
