// Cross-process backend tests: the four applications of the evaluation run
// on the net backend, with the ranks either as goroutine-hosted engine
// replicas inside one test binary (cheap, race-checked) or as genuinely
// separate OS processes re-execing this test binary (TestNetOSProcesses).
//
// Every rank builds the identical System from the identical Config (only
// Net.Rank differs) and drives the identical workload; the backends
// rendezvous over unix sockets in a per-test temp dir. The sim backend's
// serializability audit is unavailable here, so correctness is checked at
// the invariant level like on the live backend — conservation laws,
// structural integrity, empty lock tables at quiesce — plus one property
// the other backends cannot express: after the stats exchange, every rank
// must report the identical merged system-wide totals.
package net_test

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/apps/hashset"
	"repro/internal/apps/intset"
	"repro/internal/apps/mapreduce"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/port"
	"repro/internal/trace"
)

// netWindow is the measurement window per app. Short: the point is
// exercising the wire protocol, not throughput.
const netWindow = 40 * time.Millisecond

// netApp is one workload: mut tweaks the shared Config, run drives the
// system to quiescence, and the returned check validates app invariants
// against raw memory — rank 0 only, since the words are homed there.
type netApp struct {
	mut func(*core.Config)
	run func(s *core.System) (*core.Stats, func() error)
}

// netApps is the workload registry, shared by the in-process multi-rank
// tests and the OS-process fork harness (which looks workloads up by name
// from the child's environment).
var netApps = map[string]netApp{
	"bank": {
		run: func(s *core.System) (*core.Stats, func() error) {
			const accounts = 128
			b := bank.New(s, accounts)
			s.SpawnWorkers(b.TransferWorker(10))
			st := s.Run(netWindow)
			return st, func() error {
				if b.TotalRaw() != b.Total() {
					return fmt.Errorf("money not conserved: %d != %d", b.TotalRaw(), b.Total())
				}
				return nil
			}
		},
	},
	"hashset": {
		run: func(s *core.System) (*core.Stats, func() error) {
			set := hashset.New(s, 32)
			r := port.NewRand(11)
			keys := set.InitFill(128, 512, &r)
			s.SpawnWorkers(set.Worker(hashset.Workload{UpdatePct: 30, KeyRange: 512}))
			st := s.Run(netWindow)
			return st, func() error {
				if len(keys) == 0 {
					return fmt.Errorf("init fill inserted nothing")
				}
				return set.Check()
			}
		},
	},
	"intset": {
		run: func(s *core.System) (*core.Stats, func() error) {
			l := intset.New(s)
			r := port.NewRand(13)
			l.InitFill(96, 384, &r)
			s.SpawnWorkers(l.Worker(intset.Workload{UpdatePct: 25, KeyRange: 384, Kind: core.ElasticEarly}))
			st := s.Run(netWindow)
			return st, l.Check
		},
	},
	"mapreduce": {
		mut: func(c *core.Config) { c.ServiceCores = 2 },
		run: func(s *core.System) (*core.Stats, func() error) {
			const size = 32 << 10
			j := mapreduce.NewJob(s, 7, size, 4<<10)
			s.SpawnWorkers(func(rt *core.Runtime) { j.Worker(rt) })
			st := s.RunToCompletion()
			return st, func() error {
				if got := j.HistogramTotal(); got != size {
					return fmt.Errorf("merged %d of %d bytes", got, size)
				}
				if j.HistogramRaw() != j.Expected() {
					return fmt.Errorf("histogram does not match the sequential model")
				}
				return nil
			}
		},
	},
}

// appNames is the deterministic iteration order for subtests.
var appNames = []string{"bank", "hashset", "intset", "mapreduce"}

// netConfig is the shared per-rank Config: everything identical across
// ranks except Net.Rank.
func netConfig(rank, ranks int, addrs []string) core.Config {
	return core.Config{
		Backend:    core.BackendNet,
		Seed:       7,
		TotalCores: 8,
		// FairCM: starvation-free, so the post-deadline drain stays short
		// (see the live tests — on net, livelock would be real RPCs).
		Policy: cm.FairCM,
		// The flight recorder stays on so every emit path runs per-process.
		Trace: &trace.Options{ActorEvents: 1024},
		Net:   &core.NetConfig{Ranks: ranks, Rank: rank, Addrs: addrs, Session: 0},
	}
}

func unixAddrs(dir string, ranks int) []string {
	addrs := make([]string, ranks)
	for r := range addrs {
		addrs[r] = fmt.Sprintf("unix:%s/r%d", dir, r)
	}
	return addrs
}

// runOneRank builds this rank's System and drives the workload; the rank-0
// caller gets the app check back, other ranks get nil.
func runOneRank(app netApp, cfg core.Config) (st *core.Stats, check func() error, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("rank %d: panic: %v", cfg.Net.Rank, p)
		}
	}()
	s, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("rank %d: NewSystem: %v", cfg.Net.Rank, err)
	}
	st, appCheck := app.run(s)
	if cfg.Net.Rank != 0 {
		return st, nil, nil
	}
	check = func() error {
		if st.Commits == 0 {
			return fmt.Errorf("no transaction committed")
		}
		if leaked := s.LockedAddrs(); leaked != 0 {
			return fmt.Errorf("%d addresses still locked after drain", leaked)
		}
		if tr := s.Trace(); tr == nil {
			return fmt.Errorf("flight recorder enabled but no trace assembled")
		} else if len(tr.Events) == 0 {
			return fmt.Errorf("flight recorder enabled but trace is empty")
		}
		return appCheck()
	}
	return st, check, nil
}

// runRanks runs one workload across ranks engine replicas inside this
// process (one goroutine per rank) and checks rank-0 invariants plus the
// cross-rank agreement of the merged stats.
func runRanks(t *testing.T, ranks int, name string) {
	t.Helper()
	app, ok := netApps[name]
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	addrs := unixAddrs(t.TempDir(), ranks)
	stats := make([]*core.Stats, ranks)
	errs := make([]error, ranks)
	var check func() error
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := netConfig(r, ranks, addrs)
			if app.mut != nil {
				app.mut(&cfg)
			}
			var c func() error
			stats[r], c, errs[r] = runOneRank(app, cfg)
			if r == 0 {
				check = c
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := check(); err != nil {
		t.Error(err)
	}
	// The stats exchange must leave every rank with the same system totals.
	for r := 1; r < ranks; r++ {
		if stats[r].Commits != stats[0].Commits || stats[r].Aborts != stats[0].Aborts || stats[r].Ops != stats[0].Ops {
			t.Errorf("rank %d merged stats disagree with rank 0: commits %d/%d aborts %d/%d ops %d/%d",
				r, stats[r].Commits, stats[0].Commits, stats[r].Aborts, stats[0].Aborts, stats[r].Ops, stats[0].Ops)
		}
	}
}

func TestNetApps(t *testing.T) {
	for _, name := range appNames {
		name := name
		// "plain" names the one message plane: every payload is its own
		// wire message.
		t.Run(name, func(t *testing.T) {
			t.Run("plain", func(t *testing.T) { runRanks(t, 2, name) })
		})
	}
}

// TestNetBankThreeRanks covers the many-link topology: rank 2 dials both
// lower ranks, core→rank assignment is non-uniform (8 cores over 3 ranks).
func TestNetBankThreeRanks(t *testing.T) {
	runRanks(t, 3, "bank")
}

// TestNetBarrier runs the §8 privatization barrier across ranks: the
// barrier fan-out crosses the wire as registered barrierMsg payloads, and
// the post-barrier direct reads travel as state RPCs from the non-zero
// ranks to the memory home.
func TestNetBarrier(t *testing.T) {
	ranks := 2
	addrs := unixAddrs(t.TempDir(), ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d: panic: %v", r, p)
				}
			}()
			cfg := netConfig(r, ranks, addrs)
			s, err := core.NewSystem(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			n := s.NumAppCores()
			slots := core.NewTArray(s, core.Uint64Codec(), n, 0)
			s.SpawnWorkers(func(rt *core.Runtime) {
				i := rt.AppIndex()
				rt.Run(func(tx *core.Tx) { slots.Set(tx, i, uint64(i)+1) })
				rt.Barrier()
				for j := 0; j < n; j++ {
					if got := slots.At(j).GetDirect(rt.Port(), rt.Core()); got != uint64(j)+1 {
						panic(fmt.Sprintf("core %d saw slot %d = %d after barrier, want %d", i, j, got, j+1))
					}
				}
				rt.Barrier()
			})
			st := s.RunToCompletion()
			if r == 0 {
				if st.Commits == 0 {
					errs[r] = fmt.Errorf("no transaction committed")
				} else if leaked := s.LockedAddrs(); leaked != 0 {
					errs[r] = fmt.Errorf("%d addresses still locked after drain", leaked)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestNetIrrevocable mixes irrevocable transfers into the bank workload
// across ranks: the exclusivity token requests/grants/releases cross the
// wire, and irrevocable reads/writes travel as state RPCs.
func TestNetIrrevocable(t *testing.T) {
	ranks := 2
	addrs := unixAddrs(t.TempDir(), ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d: panic: %v", r, p)
				}
			}()
			cfg := netConfig(r, ranks, addrs)
			s, err := core.NewSystem(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			const accounts = 64
			accts := core.NewTArray(s, core.Uint64Codec(), accounts, 1000)
			s.SpawnWorkers(func(rt *core.Runtime) {
				rnd := rt.Rand()
				// Every worker's first transfer is irrevocable so the token
				// protocol is exercised deterministically: under the conflict
				// storm a worker completes only a handful of loop iterations
				// per window, too few for a 5% draw alone to be reliable.
				first := true
				for !rt.Stopped() {
					from, to := bank.PickTransfer(rnd, accounts)
					if first || rnd.Intn(100) < 5 {
						first = false
						rt.RunIrrevocable(func(ir *core.Irrevocable) {
							f := accts.At(from).GetIr(ir)
							tv := accts.At(to).GetIr(ir)
							accts.At(from).SetIr(ir, f-1)
							accts.At(to).SetIr(ir, tv+1)
						})
					} else {
						rt.Run(func(tx *core.Tx) {
							f := accts.Get(tx, from)
							tv := accts.Get(tx, to)
							accts.Set(tx, from, f-1)
							accts.Set(tx, to, tv+1)
						})
					}
					rt.AddOps(1)
				}
			})
			st := s.Run(netWindow)
			if r == 0 {
				var sum uint64
				for i := 0; i < accounts; i++ {
					sum += accts.GetRaw(i)
				}
				switch {
				case st.Commits == 0:
					errs[r] = fmt.Errorf("no transaction committed")
				case st.Irrevocables == 0:
					errs[r] = fmt.Errorf("no irrevocable transaction completed")
				case s.LockedAddrs() != 0:
					errs[r] = fmt.Errorf("%d addresses still locked after drain", s.LockedAddrs())
				case sum != uint64(accounts)*1000:
					errs[r] = fmt.Errorf("money not conserved across irrevocable mix: %d != %d", sum, uint64(accounts)*1000)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// --- OS-process harness -------------------------------------------------

// Environment contract between the forking parent and the re-exec'd child:
// the child runs one non-zero rank of the named workload and exits 0 on
// success.
const (
	envApp   = "TM2C_NET_TEST_APP"
	envRank  = "TM2C_NET_TEST_RANK"
	envRanks = "TM2C_NET_TEST_RANKS"
	envAddrs = "TM2C_NET_TEST_ADDRS"
)

func TestMain(m *testing.M) {
	if name := os.Getenv(envApp); name != "" {
		os.Exit(helperMain(name))
	}
	os.Exit(m.Run())
}

// helperMain is the child side of TestNetOSProcesses: one rank of the
// workload in its own OS process.
func helperMain(name string) int {
	app, ok := netApps[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "helper: unknown workload %q\n", name)
		return 2
	}
	rank, err1 := strconv.Atoi(os.Getenv(envRank))
	ranks, err2 := strconv.Atoi(os.Getenv(envRanks))
	if err1 != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "helper: bad rank env")
		return 2
	}
	addrs := strings.Split(os.Getenv(envAddrs), ",")
	cfg := netConfig(rank, ranks, addrs)
	if app.mut != nil {
		app.mut(&cfg)
	}
	st, _, err := runOneRank(app, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		return 1
	}
	if st == nil || st.Commits == 0 {
		fmt.Fprintln(os.Stderr, "helper: merged stats report zero commits")
		return 1
	}
	return 0
}

// TestNetOSProcesses runs every workload across two genuinely separate OS
// processes: rank 0 in this test process, rank 1 as a re-exec of the test
// binary in helper mode. This is the acceptance check that the backend
// works process-to-process, not just engine-to-engine.
func TestNetOSProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("forking subprocesses in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	for _, name := range appNames {
		name := name
		t.Run(name, func(t *testing.T) {
			addrs := unixAddrs(t.TempDir(), 2)
			cmd := exec.Command(exe, "-test.run=^$")
			cmd.Env = append(os.Environ(),
				envApp+"="+name,
				envRank+"=1",
				envRanks+"=2",
				envAddrs+"="+strings.Join(addrs, ","),
			)
			var childOut strings.Builder
			cmd.Stdout = &childOut
			cmd.Stderr = &childOut
			if err := cmd.Start(); err != nil {
				t.Fatalf("fork rank 1: %v", err)
			}
			app := netApps[name]
			cfg := netConfig(0, 2, addrs)
			if app.mut != nil {
				app.mut(&cfg)
			}
			_, check, err := runOneRank(app, cfg)
			waitErr := cmd.Wait()
			if err != nil {
				t.Fatalf("rank 0: %v (child: %v, output: %s)", err, waitErr, childOut.String())
			}
			if waitErr != nil {
				t.Fatalf("rank 1 process failed: %v\noutput: %s", waitErr, childOut.String())
			}
			if err := check(); err != nil {
				t.Error(err)
			}
		})
	}
}
