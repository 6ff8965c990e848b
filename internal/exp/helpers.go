package exp

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Overrides are cross-cutting knobs applied to every system an experiment
// builds. They are threaded explicitly through Experiment.Run — there are
// no mutable package globals — so experiments are reentrant: overlapping
// runs (e.g. live-backend runs racing sim runs in tests) cannot observe
// each other's settings.
type Overrides struct {
	// SerialRPC forces serial (non-scatter-gather) commit-time lock
	// acquisition — wired to the -serialrpc flag of cmd/tm2c-bench for
	// A/B-ing any figure against the pre-RPC-layer behavior. The ablrpc
	// ablation compares both modes itself; under the flag its scatter rows
	// degenerate to serial.
	SerialRPC bool
	// Placement, when non-nil, overrides the placement policy — wired to
	// the -placement flag for A/B-ing any figure across policies. The
	// ablplace ablation compares the policies itself; under the flag its
	// rows all run the forced policy.
	Placement *placement.Kind
	// ReadOnly runs every bank balance scan (and zipf hot-read audit) as a
	// declared ReadOnly transaction instead of a Normal one — wired to the
	// -readonly flag for A/B-ing the bank figures against the read-only
	// fast path. The ablro ablation compares both kinds itself.
	ReadOnly bool
	// Coalesce enables the coalescing message plane (Config.Coalesce) in
	// every system an experiment builds — wired to the -coalesce flag for
	// A/B-ing any figure against the batched transport. The ablbatch
	// ablation compares both planes itself; under the flag its uncoalesced
	// rows degenerate to coalesced ones.
	Coalesce bool
	// AdaptiveFlush enables size/age-triggered outbox emission
	// (Config.AdaptiveFlush) in every system an experiment builds — wired
	// to the -adaptiveflush flag. It implies Coalesce: adaptive flush is a
	// policy over staged envelopes, so there is nothing for it to defer on
	// the uncoalesced plane. The ablbatch ablation compares the three
	// transport modes (off/on/adaptive) itself.
	AdaptiveFlush bool
	// Backend selects the execution backend every system runs on — wired
	// to the -backend flag. On BackendLive durations are wall-clock and
	// throughput columns read ops per wall millisecond. The fig8a
	// ping-pong microbenchmark measures the simulator's timing model and
	// always runs on sim.
	Backend core.Backend
	// Protocol selects the read-visibility protocol (visible reads vs
	// invisible-read TL2) in every system an experiment builds — wired to
	// the -protocol flag for A/B-ing any figure. The abltl2 ablation
	// compares both protocols itself; under the flag its visible rows
	// degenerate to the forced protocol. The zero value is the visible
	// default, so existing experiments (and their pinned fingerprints) are
	// untouched.
	Protocol core.Protocol
	// Trace, when non-nil, enables the flight recorder (Config.Trace) in
	// every system an experiment builds — wired to the -trace-dir flag of
	// cmd/tm2c-bench. Options.Sink receives each run's merged trace; nil
	// Trace keeps the recorder compiled out (a nil check per emit site).
	Trace *trace.Options
	// Net places every system this process builds within a cross-process
	// group (Config.Net); applied only under Backend == BackendNet. The
	// template's Session should be -1 so each constructed system draws the
	// next per-process session, which stays aligned across ranks because
	// every rank runs the identical experiment sequence.
	Net *core.NetConfig
}

// sysConfig carries the per-run knobs shared by the experiment helpers.
type sysConfig struct {
	pl        noc.Platform
	total     int
	svc       int // 0 = default split, -1 = raw only
	dep       core.Deployment
	pol       cm.Policy
	acq       core.AcquireMode
	batch     bool // false disables write-lock batching
	serialRPC bool // true disables commit-time scatter-gather
	coalesce  bool // true enables the coalescing message plane
	adaptive  bool // true enables adaptive outbox flush (implies coalesce)
	gran      int
	place     placement.Kind
	repEpoch  int // adaptive placement epoch length (0 = default)
	protocol  core.Protocol
	seed      uint64
}

func defaultSys(total int) sysConfig {
	return sysConfig{pl: noc.SCC(0), total: total, pol: cm.FairCM, batch: true}
}

func (c sysConfig) build(ov Overrides) *core.System {
	cfg := core.Config{
		Platform:         c.pl,
		Backend:          ov.Backend,
		Seed:             c.seed,
		TotalCores:       c.total,
		ServiceCores:     c.svc,
		Deployment:       c.dep,
		Policy:           c.pol,
		Acquire:          c.acq,
		NoBatching:       !c.batch,
		SerialRPC:        c.serialRPC || ov.SerialRPC,
		Coalesce:         c.coalesce || ov.Coalesce,
		AdaptiveFlush:    c.adaptive || ov.AdaptiveFlush,
		LockGranule:      c.gran,
		Placement:        c.place,
		RepartitionEpoch: c.repEpoch,
		Protocol:         c.protocol,
	}
	if cfg.AdaptiveFlush {
		cfg.Coalesce = true // adaptive flush is a policy over staged envelopes
	}
	if ov.Placement != nil {
		cfg.Placement = *ov.Placement
	}
	if ov.Protocol != core.ProtocolVisible {
		cfg.Protocol = ov.Protocol
	}
	cfg.Trace = ov.Trace
	if ov.Net != nil && cfg.Backend == core.BackendNet {
		// Every build gets its own copy: normalization must not mutate the
		// caller's template across runs.
		n := *ov.Net
		cfg.Net = &n
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: bad system config: %v", err))
	}
	return s
}

// perMs converts an ops count over a virtual duration to ops per virtual ms.
func perMs(ops uint64, d sim.Time) float64 {
	if d == 0 {
		return 0
	}
	return float64(ops) / (float64(d) / 1e6)
}

// ratio guards against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// halfSplit returns the dedicated service-core count used by the paper for
// a given total (half the cores, at least one of each).
func halfSplit(total int) int {
	s := total / 2
	if s < 1 {
		s = 1
	}
	if s >= total {
		s = total - 1
	}
	return s
}
