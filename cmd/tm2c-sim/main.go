// Command tm2c-sim runs one ad-hoc TM2C workload with explicit knobs and
// prints a detailed statistics report. It is the exploratory companion to
// tm2c-bench: every protocol and platform parameter of the paper is a flag.
//
// Examples:
//
//	tm2c-sim -app bank -cm faircm -cores 48 -duration 50ms
//	tm2c-sim -app list -mode elastic-read -platform opteron
//	tm2c-sim -app hashset -deployment multitask -update 50
//	tm2c-sim -app mapreduce -size 4194304 -chunk 8192
//	tm2c-sim -app bank -backend live -duration 50ms
//	tm2c-sim -app bank -backend net -groups 2 -duration 50ms
//	tm2c-sim -app bank -protocol tl2 -balance 90 -zipf 0.85
//
// -backend net spreads the cores over -groups OS processes connected by
// framed sockets; rank 0 forks the worker ranks by default, or each rank is
// launched standalone with -peers/-rank/-listen. Rank 0 prints the merged
// report; worker ranks run silently (their traces, if any, get a .rN path
// suffix).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/apps/bank"
	"repro/internal/apps/hashset"
	"repro/internal/apps/intset"
	"repro/internal/apps/mapreduce"
	"repro/internal/core"
	"repro/internal/netboot"
	"repro/internal/noc"
	"repro/internal/trace"
)

func main() {
	var (
		app      = flag.String("app", "bank", "bank | hashset | list | mapreduce")
		cores    = flag.Int("cores", 48, "total cores")
		svc      = flag.Int("svc", 0, "DTM service cores (0 = half)")
		cmName   = flag.String("cm", "faircm", "none | backoff | offset-greedy | wholly | faircm")
		deploy   = flag.String("deployment", "dedicated", "dedicated | multitask")
		acquire  = flag.String("acquire", "lazy", "lazy | eager")
		epoch    = flag.Int("epoch", 0, "hier placement: lock accesses per repartition epoch (0 = default)")
		platform = flag.String("platform", "scc", "scc | scc800 | opteron | scc:N (setting N)")
		duration = flag.Duration("duration", 20*time.Millisecond, "virtual run length")
		traceF   = flag.String("trace", "", "write a flight-recorder trace of the run: .json for chrome://tracing, anything else for a plain-text timeline")

		// workload knobs
		update   = flag.Int("update", 20, "hashset/list: update percentage")
		balances = flag.Int("balance", 20, "bank: balance percentage")
		readonly = flag.Bool("readonly", false, "bank: run balance scans as declared read-only transactions")
		zipf     = flag.Float64("zipf", 0, "bank: Zipf skew exponent for account choice (0 = uniform)")
		accounts = flag.Int("accounts", 1024, "bank: accounts")
		buckets  = flag.Int("buckets", 128, "hashset: buckets")
		load     = flag.Int("load", 4, "hashset: load factor")
		elems    = flag.Int("elems", 512, "list: initial elements")
		mode     = flag.String("mode", "normal", "list: normal | elastic-early | elastic-read")
		size     = flag.Int("size", 4<<20, "mapreduce: input bytes")
		chunk    = flag.Int("chunk", 8<<10, "mapreduce: chunk bytes")

		// The system knobs and net process-group flags shared with tm2c-bench.
		sysFlags   = core.BindFlags(flag.CommandLine)
		resolveNet = netboot.BindFlags(flag.CommandLine)
	)
	flag.Parse()

	// Each app panics on a size knob below its floor (a zero divides by zero
	// deep inside it): reject one before anything is built or forked.
	for _, c := range []struct {
		app, flag string
		v, min    int
	}{
		{"bank", "accounts", *accounts, 2}, {"hashset", "buckets", *buckets, 1},
		{"hashset", "load", *load, 1}, {"list", "elems", *elems, 1},
		{"mapreduce", "size", *size, 0}, {"mapreduce", "chunk", *chunk, 1},
	} {
		if c.app == *app && c.v < c.min {
			fatal(fmt.Errorf("%s needs -%s >= %d, got %d", c.app, c.flag, c.min, c.v))
		}
	}

	pol, err := repro.ParsePolicy(*cmName)
	if err != nil {
		fatal(err)
	}
	cfg := repro.Config{
		Seed:             1, // -seed's default; an unset flag leaves it
		TotalCores:       *cores,
		ServiceCores:     *svc,
		Policy:           pol,
		RepartitionEpoch: *epoch,
	}
	sysFlags(&cfg)
	backend, seed := cfg.Backend, cfg.Seed
	var plan *netboot.Plan
	isChild := false
	if backend == repro.BackendNet {
		plan, err = resolveNet()
		if err != nil {
			fatal(err)
		}
		cfg.Net = plan.NetConfig()
		isChild = plan.Rank != 0
	}
	perProc := *cores
	if plan != nil {
		perProc = (*cores + plan.Ranks - 1) / plan.Ranks
	}
	if w := netboot.OversubscriptionWarning(perProc, runtime.GOMAXPROCS(0), backend); w != "" && !isChild {
		fmt.Fprintln(os.Stderr, "tm2c-sim: "+w)
	}
	if *traceF != "" {
		cfg.Trace = &trace.Options{}
	}
	if cfg.Platform, err = parsePlatform(*platform); err != nil {
		fatal(err)
	}
	switch *deploy {
	case "dedicated":
		cfg.Deployment = repro.Dedicated
	case "multitask":
		cfg.Deployment = repro.Multitask
	default:
		fatal(fmt.Errorf("unknown deployment %q", *deploy))
	}
	switch *acquire {
	case "lazy":
		cfg.Acquire = repro.Lazy
	case "eager":
		cfg.Acquire = repro.Eager
	default:
		fatal(fmt.Errorf("unknown acquire mode %q", *acquire))
	}

	if plan != nil {
		// Fork before NewSystem: constructing a net-backend system blocks in
		// the peer handshake until every rank is up.
		if err := plan.Fork(); err != nil {
			fatal(err)
		}
	}
	sys, err := repro.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}

	var verify func() error
	switch *app {
	case "bank":
		if !(*zipf >= 0) { // rejects negatives and NaN
			fatal(fmt.Errorf("invalid zipf exponent %v", *zipf))
		}
		b := bank.New(sys, *accounts)
		b.UseReadOnlyBalance(*readonly)
		sys.SpawnWorkers(b.ZipfTransferWorker(*balances, *zipf))
		verify = func() error {
			if b.TotalRaw() != b.Total() {
				return fmt.Errorf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
			}
			return nil
		}
	case "hashset":
		set := hashset.New(sys, *buckets)
		n := *buckets * *load
		rr := repro.NewRand(seed)
		set.InitFill(n, uint64(2*n), &rr)
		sys.SpawnWorkers(set.Worker(hashset.Workload{UpdatePct: *update, KeyRange: uint64(2 * n)}))
		verify = set.Check
	case "list":
		l := intset.New(sys)
		rr := repro.NewRand(seed)
		l.InitFill(*elems, uint64(2**elems), &rr)
		var kind repro.TxKind
		switch *mode {
		case "normal":
			kind = repro.Normal
		case "elastic-early":
			kind = repro.ElasticEarly
		case "elastic-read":
			kind = repro.ElasticRead
		default:
			fatal(fmt.Errorf("unknown list mode %q", *mode))
		}
		sys.SpawnWorkers(l.Worker(intset.Workload{UpdatePct: *update, KeyRange: uint64(2 * *elems), Kind: kind}))
		verify = l.Check
	case "mapreduce":
		j := mapreduce.NewJob(sys, seed, *size, *chunk)
		sys.SpawnWorkers(func(rt *repro.Runtime) { j.Worker(rt) })
		verify = func() error {
			if got := j.HistogramTotal(); int(got) != *size {
				// A cut run: which chunks merged is not known here.
				return skipped(fmt.Sprintf("job incomplete: %d of %d bytes", got, *size))
			}
			if j.HistogramRaw() != j.Expected() {
				return fmt.Errorf("histogram mismatch")
			}
			return nil
		}
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	st := sys.Run(*duration)
	if !isChild {
		report(os.Stdout, sys, st)
		// Verification reads raw memory, which is homed on rank 0 — worker
		// ranks cannot check it after the group has shut down.
		if verify != nil {
			err := verify()
			if skip, ok := err.(skipped); ok {
				fmt.Printf("verification: skipped (%s)\n", string(skip))
			} else if err != nil {
				fatal(err)
			} else {
				fmt.Println("verification: OK")
			}
		}
	}
	if *traceF != "" {
		path := *traceF
		if plan != nil && plan.Rank != 0 {
			// Every process records its own cores; suffix the worker ranks'
			// files so they don't clobber rank 0's.
			path = fmt.Sprintf("%s.r%d", path, plan.Rank)
		}
		if err := writeTrace(path, sys.Trace()); err != nil {
			fatal(err)
		}
	}
	if plan != nil {
		if err := plan.Wait(); err != nil {
			fatal(err)
		}
	}
}

// skipped is a verification that checked nothing, for the reason it gives.
type skipped string

func (s skipped) Error() string { return string(s) }

// parsePlatform reads -platform: a preset name, or scc:N for SCC
// performance setting N.
func parsePlatform(s string) (repro.Platform, error) {
	switch s {
	case "scc":
		return repro.SCC(0), nil
	case "scc800":
		return repro.SCC(1), nil
	case "opteron":
		return repro.Opteron(), nil
	}
	n, err := strconv.Atoi(strings.TrimPrefix(s, "scc:"))
	if !strings.HasPrefix(s, "scc:") || err != nil || n < 0 || n >= len(noc.Settings) {
		return repro.Platform{}, fmt.Errorf("unknown platform %q (scc, scc800, opteron, or scc:N with N in 0..%d)", s, len(noc.Settings)-1)
	}
	return repro.SCC(n), nil
}

// writeTrace renders the run's merged trace: chrome trace_event JSON for
// .json paths, the plain-text timeline otherwise.
func writeTrace(path string, t *trace.Trace) error {
	if t == nil {
		return fmt.Errorf("no trace collected")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = trace.WriteChrome(f, t)
	} else {
		err = trace.WriteText(f, t)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d events (%d dropped) written to %s\n", len(t.Events), t.Dropped, path)
	return nil
}

// report prints the run's statistics; the placement line carries the
// directory counters for every policy that has a directory to count.
func report(w io.Writer, sys *repro.System, st *repro.Stats) {
	cfg := sys.Config()
	fmt.Fprintf(w, "platform            %s\n", cfg.Platform.Name)
	fmt.Fprintf(w, "cores               %d (%d app + %d service, %v)\n",
		cfg.TotalCores, sys.NumAppCores(), sys.NumServiceCores(), cfg.Deployment)
	fmt.Fprintf(w, "contention manager  %v\n", cfg.Policy)
	fmt.Fprintf(w, "backend             %v\n", cfg.Backend)
	fmt.Fprintf(w, "protocol            %v\n", cfg.Protocol)
	if cfg.Backend == repro.BackendLive || cfg.Backend == repro.BackendNet {
		fmt.Fprintf(w, "wall duration       %v\n", st.Duration)
	} else {
		fmt.Fprintf(w, "virtual duration    %v\n", st.Duration)
	}
	fmt.Fprintf(w, "throughput          %.2f ops/ms\n", st.Throughput())
	fmt.Fprintf(w, "commits / aborts    %d / %d (commit rate %.1f%%)\n", st.Commits, st.Aborts, st.CommitRate())
	fmt.Fprintf(w, "max attempts        %d (the most any one operation needed to commit)\n", st.MaxAttempts)
	fmt.Fprintf(w, "read-only commits   %d (declared read-only transactions; zero write-lock traffic)\n", st.ReadOnlyCommits)
	fmt.Fprintf(w, "user aborts         %d (withdrawn via Tx.Abort; not retried)\n", st.UserAborts)
	fmt.Fprintf(w, "aborts by reason    conflict=%d revoked=%d doomed-read=%d stale-placement=%d timeout=%d user=%d\n",
		st.AbortReasons[trace.ReasonConflict], st.AbortReasons[trace.ReasonRevoked],
		st.AbortReasons[trace.ReasonDoomedRead], st.AbortReasons[trace.ReasonStalePlacement],
		st.AbortReasons[trace.ReasonTimeout], st.AbortReasons[trace.ReasonUser])
	fmt.Fprintf(w, "  conflict kinds    RAW=%d WAW=%d WAR=%d\n",
		st.AbortsByKind[0], st.AbortsByKind[1], st.AbortsByKind[2])
	fmt.Fprintf(w, "conflicts/revokes   %d / %d, %d locks of finished attempts revoked; node register ops: %d ended reads, %d answered by the watermark, %d abort CASes\n",
		st.Conflicts, st.Revocations, st.StaleRevokes, st.NodeEndedReads, st.NodeEndedKnown, st.NodeAbortCASes)
	fmt.Fprintf(w, "winner waits        %d (%v waited for the attempt that won to end), %d requests resent past a winner that had ended\n",
		st.WinnerWaits, st.WinnerWaitTime, st.EndedResends)
	fmt.Fprintf(w, "read-ahead locks    %d (taken past the element a TArray scan missed), %d of them never read\n", st.ReadAheadKeys, st.ReadAheadUnused)
	if dir := sys.Placement(); dir != nil {
		fmt.Fprintf(w, "placement           %s", dir.PolicyName())
		if dir.Kind() != repro.PlacementHash {
			fmt.Fprintf(w, ": epoch %d, awake %d/%d epochs, %d rounds, %d migrations (%d completed), %d stale NACKs (%d retries hint-steered), %d placement aborts, %.1f%% remote accesses",
				dir.Snapshot().Epoch(), st.AwakeEpochs, st.PlacementEpochs, st.RepartitionRounds, st.Migrations, st.Handoffs, st.StaleNacks, st.StaleNackHints, st.PlacementAborts,
				100*st.RemoteAccessRatio())
		}
		fmt.Fprintln(w)
	}
	if len(st.NodeLoad) > 0 {
		fmt.Fprintf(w, "node load           imbalance %.2f (max/mean across %d DTM nodes)\n",
			st.LoadImbalance(), len(st.NodeLoad))
	}
	fmt.Fprintf(w, "messages            %d (%.1f KB), read-lock %d, write-lock %d (%d at a read for update, %d of them committed unwritten), release %d (+%d carried), early %d\n",
		st.Msgs, float64(st.MsgBytes)/1024, st.ReadLockReqs, st.WriteLockReqs, st.UpdateReads, st.UpdateReadsUnwritten, st.ReleaseMsgs, st.CarriedReleases, st.EarlyReleases)
	if st.Commits > 0 {
		fmt.Fprintf(w, "commit round trips  %d (%.2f awaited/commit)\n",
			st.CommitRoundTrips, float64(st.CommitRoundTrips)/float64(st.Commits))
	}
	fmt.Fprintf(w, "requester reads     %d winner checks, %d winner polls (status-register reads of the attempt a NACK named, not in the message counts above)\n",
		st.WinnerChecks, st.WinnerPolls)
	if cfg.Backend == repro.BackendNet && st.Ops > 0 {
		fmt.Fprintf(w, "state rpcs          %d (%.2f/op; synchronous round trips to the rank homing the word or register, not in the message counts above)\n",
			st.StateRPCs, float64(st.StateRPCs)/float64(st.Ops))
	}
	if cfg.Protocol == repro.ProtocolTL2 {
		fmt.Fprintf(w, "tl2 local reads     %d (served from the local version table; zero wire traffic)\n", st.LocalReads)
		fmt.Fprintf(w, "tl2 doomed reads    %d (snapshot-staleness aborts at read time)\n", st.DoomedReads)
		fmt.Fprintf(w, "tl2 revalidations   %d", st.Revalidations)
		if st.Commits > 0 {
			fmt.Fprintf(w, " (%.2f read-set stripes checked/commit)", float64(st.Revalidations)/float64(st.Commits))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "tl2 clock advances  %d (one global-clock tick per update commit)\n", st.ClockAdvances)
	}
	if sys.TxLifespans.Count() > 0 {
		fmt.Fprintf(w, "tx lifespan         %s\n", sys.TxLifespans.String())
	}
	if sys.CommitLatency.Count() > 0 {
		fmt.Fprintf(w, "commit latency      %s\n", sys.CommitLatency.String())
	}
	if sys.ScatterLatency.Count() > 0 {
		fmt.Fprintf(w, "scatter phase       %s\n", sys.ScatterLatency.String())
	}
	if sys.GatherLatency.Count() > 0 {
		fmt.Fprintf(w, "gather phase        %s\n", sys.GatherLatency.String())
	}
	if sys.RevalidateLatency.Count() > 0 {
		fmt.Fprintf(w, "tl2 revalidation    %s\n", sys.RevalidateLatency.String())
	}
	if sys.K != nil {
		fmt.Fprintf(w, "kernel events       %d\n", sys.K.EventsRun())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tm2c-sim:", err)
	os.Exit(1)
}
