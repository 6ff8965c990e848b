package exp

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/port"
)

// Overrides are cross-cutting knobs applied to every system an experiment
// builds. They are threaded explicitly through Experiment.Run — there are
// no mutable package globals — so experiments are reentrant: overlapping
// runs (e.g. live-backend runs racing sim runs in tests) cannot observe
// each other's settings.
type Overrides struct {
	// Sys, when non-nil, edits the core.Config of every system an
	// experiment builds, after the experiment filled it in — how tm2c-bench
	// forces the shared system flags (core.BindFlags: -backend, -protocol,
	// -placement, -seed), the flight recorder and this
	// process's place in a net-backend group onto any figure for A/B runs.
	// An ablation that sweeps a forced knob itself degenerates to the forced
	// value on every row. The fig8a ping-pong microbenchmark measures the
	// simulator's timing model and builds no system, so it ignores Sys.
	Sys func(*core.Config)
}

// defaultSys is the configuration every experiment starts from: the SCC
// under setting 0 with FairCM, total cores in the paper's half/half split.
func defaultSys(total int) core.Config {
	return core.Config{Platform: noc.SCC(0), TotalCores: total, Policy: cm.FairCM}
}

// build constructs the system for an experiment's cfg under the overrides.
func (ov Overrides) build(cfg core.Config) *core.System {
	if ov.Sys != nil {
		ov.Sys(&cfg)
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: bad system config: %v", err))
	}
	return s
}

// perMs converts an ops count over a virtual duration to ops per virtual ms.
func perMs(ops uint64, d port.Time) float64 {
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
