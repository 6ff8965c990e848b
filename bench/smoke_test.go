package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/sim"
)

// benchmarkJSON is the whole of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestContractMatchesCode keeps BENCHMARK.json and the metric and workload
// lists in the code in step, inside the contract's limits.
func TestContractMatchesCode(t *testing.T) {
	c := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(c.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code (contract: 2..8)", n, len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their reasons differ)", i, w.Name, specs[i].name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or reason outside the contract", w.Name)
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 || n != len(gated) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated in code (contract: 1..16)", n, len(gated))
	}
	for i, m := range c.EndToEnd {
		if m.Name != gated[i].name || m.Unit != gated[i].unit || (m.Better == "higher") != gated[i].higher {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], code has %s [%s]", i, m.Name, m.Unit, gated[i].name, gated[i].unit)
		}
		if m.Bound > c.EndToEnd[0].Bound {
			t.Errorf("end-to-end %s: bound above that of %s, which must be the largest", m.Name, c.EndToEnd[0].Name)
		}
		// No bound is wider than a tenth: a metric that cannot repeat
		// within that is not gated (metrics.go, hostTime).
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.10 ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: outside the contract", m.Name)
		}
	}
	if n := len(c.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (contract: 1..128)", n, len(perLayer))
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better == "higher") != perLayer[i].higher {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], code has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: outside the contract", m.Name)
		}
	}
}

func checkMetrics(t *testing.T, r *runResult, nonZero bool) {
	t.Helper()
	if !r.Correct {
		t.Fatalf("%s: %s", r.Workload, r.Error)
	}
	if r.Attempted == 0 || r.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", r.Workload, r.Attempted, r.Failed)
	}
	for _, d := range defs(r.Trace) {
		v, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", r.Workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: %s = %v", r.Workload, d.name, v)
		case nonZero && v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.name, v)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a 200 ms window with all its
// correctness checks.
func TestWorkloadsSmoke(t *testing.T) {
	o := options{seed: 1, seconds: 0.2, warmup: 100 * time.Millisecond, outDir: "out"}
	for _, sp := range specs {
		checkMetrics(t, runWorkload(sp, o), true)
	}
}

// TestTracedSmoke runs one traced pass on the held-out seed: every
// per-layer metric is emitted, the kept spans nest without overlapping
// (runWorkload checks them), and the trace file is written. With these
// options a round's window is 75 ms and a micro loop runs for 50 ms.
func TestTracedSmoke(t *testing.T) {
	o := options{seed: 2, seconds: 0.75, warmup: 300 * time.Millisecond, trace: true, outDir: "out", micro: new(map[string]float64)}
	for _, name := range []string{"live-bank", "sim-bank-scc48"} {
		r := runWorkload(findSpec(name), o)
		checkMetrics(t, r, false)
		if st, err := os.Stat("out/" + name + ".trace.jsonl"); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file missing or empty: %v", name, err)
		}
		if r.Metrics["core.attempts_per_op"] < 1 {
			t.Errorf("%s: %v attempts per op", name, r.Metrics["core.attempts_per_op"])
		}
	}
}

func TestLathistResolution(t *testing.T) {
	var h lathist
	for d := int64(1); d < 1<<40; d = d*33/32 + 1 {
		lo, hi := latBounds(latBucket(sim.Time(d)))
		if float64(d) < lo || float64(d) >= hi {
			t.Fatalf("%d ns landed in bucket [%v,%v)", d, lo, hi)
		}
		if d >= latSub && (hi-lo)/lo > 1.0/latSub {
			t.Fatalf("bucket [%v,%v) wider than 1/%d", lo, hi, latSub)
		}
	}
	for i := 1; i <= 1000; i++ {
		h.record(sim.Time(i * 1000))
	}
	if got := h.quantile(0.5); math.Abs(got-500e3)/500e3 > 0.01 {
		t.Errorf("median of 1..1000 µs = %v ns", got)
	}
	if got := h.quantile(0.99); math.Abs(got-990e3)/990e3 > 0.01 {
		t.Errorf("p99 of 1..1000 µs = %v ns", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}

// TestPairVerdict pins the pairing rule of -compare: nothing is resolved on
// fewer than ten pairs, and "improved" needs nine wins in ten and a gap
// beyond the old side's own spread.
func TestPairVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // lower is better
	scaled := func(f float64) []float64 {
		v := make([]float64, len(old))
		for i, x := range old {
			v[i] = x * f
		}
		return v
	}
	for _, c := range []struct {
		name     string
		old, new []float64
		bound    float64
		want     string
	}{
		{"one pair", old[:1], scaled(0.5)[:1], 0.05, "unresolved (n<10 pairs)"},
		{"nine pairs", old[:9], scaled(0.5)[:9], 0.05, "unresolved (n<10 pairs)"},
		{"clear gain", old, scaled(0.9), 0.05, "improved"},
		{"gain inside the old spread", old, scaled(0.995), 0.05, "unchanged"},
		{"same", old, old, 0.05, "unchanged"},
		{"worse than the bound", old, scaled(1.08), 0.05, "REGRESSED"},
		{"old spread beyond the bound", old, scaled(1.005), 0.01, "unresolved"},
	} {
		if got, _ := pairVerdict(false, c.old, c.new, c.bound); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCheckSpans: a well-formed op passes; a child outside its parent and
// two overlapping siblings are both refused.
func TestCheckSpans(t *testing.T) {
	op := func(writeStart, commitEnd sim.Time) []span {
		return []span{
			{kind: spanRead, id: 2, parent: 1, start: 10, end: 30},
			{kind: spanWrite, id: 3, parent: 1, start: writeStart, end: 40},
			{kind: spanCommit, id: 4, parent: 1, start: 40, end: commitEnd},
			{kind: spanAttempt, id: 1, parent: 0, start: 5, end: 100},
			{kind: spanOp, id: 0, parent: 0, start: 0, end: 100},
		}
	}
	if err := checkSpans(op(30, 100)); err != nil {
		t.Errorf("well-formed op: %v", err)
	}
	if checkSpans(op(20, 100)) == nil {
		t.Error("a write that starts inside the read was accepted")
	}
	if checkSpans(op(30, 101)) == nil {
		t.Error("a commit that outlasts its attempt was accepted")
	}
}
