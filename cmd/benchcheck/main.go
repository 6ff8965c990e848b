// Command benchcheck asserts invariants over tm2c-bench JSON artifacts in
// CI. It dispatches on the tables the artifact contains:
//
//   - ablbatch: the message-plane claim. With protocol batching off, the
//     coalescing transport must report at least -minreduction percent fewer
//     wire messages per operation than the uncoalesced plane, and coalescing
//     must never inflate per-operation wire traffic beyond noise in any row
//     pair.
//   - abltl2: the invisible-read claim. On each read-mostly workload the
//     TL2 row must report at least -mintl2reduction percent fewer wire
//     messages per operation than the visible row, and TL2 throughput must
//     be no worse than visible.
//   - scaleplace: the hierarchical-placement-at-scale claim. On the Zipf
//     rows the hier policy must hold at least -minscaletput of hash's
//     throughput, report a strictly lower remote-access share than flat
//     adaptive, and materialize far fewer leaves than the leaf universe;
//     -maximbalance bounds every adaptive/hier row's node imbalance and
//     -maxwireop bounds every row's wire messages per operation.
//
// The per-operation normalization is what makes both checks valid on the
// live backend, where each row's wall-clock window covers a different
// amount of work.
//
// Two further modes bypass the table dispatch:
//
//   - -trace validates a flight-recorder chrome trace_event JSON file:
//     every event must carry a known phase type and non-negative timestamp.
//     -requireabort additionally demands at least one abort span carrying a
//     taxonomy reason; -requireenvelope demands at least one coalesced
//     envelope instant (an envelope instant is only emitted for >= 2
//     payloads, so its presence proves real coalescing).
//   - -baseline gates a fresh tm2c-bench artifact against a committed one:
//     deterministic sim tables must be cell-for-cell identical (the
//     trace-off no-regression guarantee), and with -maxslowdown > 0 the
//     fresh run's wall-clock may not exceed baseline elapsed_ms by more
//     than that factor.
//   - -netsmoke validates a cross-process net-backend artifact: backend tag
//     "net", rectangular non-empty tables, and at least one positive numeric
//     cell (an all-zero grid means the processes never handed off work).
//
// Usage:
//
//	tm2c-bench -run ablbatch -scale quick -json out/
//	benchcheck -file out/BENCH_ablbatch.json -minreduction 20
//	tm2c-bench -run abltl2 -scale quick -json out/
//	benchcheck -file out/BENCH_abltl2.json -mintl2reduction 60
//	benchcheck -trace out/traces/run-0000.json -requireabort
//	benchcheck -file fresh/BENCH_fig5a.json -baseline BENCH_fig5a.json
//	tm2c-bench -run fig5a -scale quick -backend net -json out/
//	benchcheck -file out/BENCH_fig5a_net.json -netsmoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// table mirrors the exp.Table JSON schema (only what the check needs).
type table struct {
	ID      string     `json:"id"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type benchResult struct {
	ID        string   `json:"id"`
	Backend   string   `json:"backend"`
	ElapsedMS int64    `json:"elapsed_ms"`
	Tables    []*table `json:"tables"`
}

func main() {
	var (
		file            = flag.String("file", "", "tm2c-bench JSON artifact to check")
		minReduction    = flag.Float64("minreduction", 20, "ablbatch: minimum percent wire-message reduction required on the batching-off pair")
		minTL2Reduction = flag.Float64("mintl2reduction", 60, "abltl2: minimum percent wire-messages-per-op reduction required of tl2 vs visible on every workload")
		traceFile       = flag.String("trace", "", "validate a flight-recorder chrome trace_event JSON file instead of a bench artifact")
		requireAbort    = flag.Bool("requireabort", false, "-trace: require at least one abort span with a taxonomy reason")
		requireEnvelope = flag.Bool("requireenvelope", false, "-trace: require at least one coalesced envelope instant")
		baseline        = flag.String("baseline", "", "committed artifact to gate -file against (sim tables must be cell-identical)")
		maxSlowdown     = flag.Float64("maxslowdown", 0, "-baseline: max allowed elapsed_ms ratio fresh/baseline (0 disables the wall-clock gate)")
		netSmoke        = flag.Bool("netsmoke", false, "validate -file as a cross-process net-backend artifact (backend tag, table shape, nonzero throughput) instead of the table dispatch")
		minScaleTput    = flag.Float64("minscaletput", 0.9, "scaleplace: minimum hier/hash throughput ratio required on Zipf rows")
		maxImbalance    = flag.Float64("maximbalance", -1, "scaleplace: fail if an adaptive/hier row's node imbalance exceeds this (-1 disables)")
		maxWireOp       = flag.Float64("maxwireop", -1, "scaleplace: fail if any row's wire/op exceeds this (-1 disables)")
	)
	flag.Parse()
	if *traceFile != "" {
		if checkTrace(*traceFile, *requireAbort, *requireEnvelope) {
			os.Exit(1)
		}
		return
	}
	if *file == "" {
		fatal(fmt.Errorf("-file is required"))
	}
	buf, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal(buf, &res); err != nil {
		fatal(fmt.Errorf("%s: %v", *file, err))
	}
	if *baseline != "" {
		if checkBaseline(&res, *file, *baseline, *maxSlowdown) {
			os.Exit(1)
		}
		return
	}
	if *netSmoke {
		if checkNetSmoke(&res, *file) {
			os.Exit(1)
		}
		return
	}
	checked, failed := false, false
	if grid := findTable(res.Tables, "ablbatch"); grid != nil {
		checked = true
		failed = checkABLBatch(&res, grid, *minReduction) || failed
	}
	if grid := findTable(res.Tables, "abltl2"); grid != nil {
		checked = true
		failed = checkABLTL2(&res, grid, *minTL2Reduction) || failed
	}
	if grid := findTable(res.Tables, "scaleplace"); grid != nil {
		checked = true
		failed = checkScalePlace(&res, grid, *minScaleTput, *maxImbalance, *maxWireOp) || failed
	}
	if !checked {
		fatal(fmt.Errorf("%s: no table benchcheck knows how to check (want ablbatch, abltl2 or scaleplace)", *file))
	}
	if failed {
		os.Exit(1)
	}
}

// checkABLBatch verifies the coalescing-transport claim. Returns true on
// failure.
func checkABLBatch(res *benchResult, grid *table, minReduction float64) bool {
	batchCol := colIndex(grid, "batching")
	coalCol := colIndex(grid, "coalesce")
	wireCol := colIndex(grid, "wire/op")
	ppwCol := colIndex(grid, "payloads/wire")

	// Group rows by batching setting: transport mode off / on / adaptive.
	type rowVals struct{ wirePerOp, ppw float64 }
	rows := map[string]map[string]rowVals{} // batching -> coalesce mode -> values
	for _, row := range grid.Rows {
		rows[row[batchCol]] = appendRow(rows[row[batchCol]], row[coalCol], rowVals{
			wirePerOp: cell(row, wireCol), ppw: cell(row, ppwCol),
		})
	}
	failed := false
	for _, b := range []string{"on", "off"} {
		off, okOff := rows[b]["off"]
		on, okOn := rows[b]["on"]
		if !okOff || !okOn {
			fatal(fmt.Errorf("missing coalesce on/off pair for batching=%s", b))
		}
		// Two views of the reduction: per operation across the run pair
		// (noisy on live — abort rates differ run to run), and per logical
		// payload within the coalesced run (structural: 1 - 1/ppw is
		// exactly the fraction of wire messages the envelopes absorbed).
		crossRun := 100 * (1 - on.wirePerOp/off.wirePerOp)
		perPayload := 0.0
		if on.ppw > 0 {
			perPayload = 100 * (1 - 1/on.ppw)
		}
		fmt.Printf("%s backend=%s batching=%s: wire msgs/op %v -> %v (%.1f%% cross-run, %.1f%% per-payload reduction)\n",
			res.ID, res.Backend, b, off.wirePerOp, on.wirePerOp, crossRun, perPayload)
		if adpt, ok := rows[b]["adaptive"]; ok {
			fmt.Printf("%s backend=%s batching=%s: adaptive flush wire msgs/op %v (plain coalesce %v, uncoalesced %v)\n",
				res.ID, res.Backend, b, adpt.wirePerOp, on.wirePerOp, off.wirePerOp)
			// The adaptive-flush claim is the batching-on plane: protocol
			// batching already merged each burst, so plain coalescing finds
			// nothing and pays envelope overhead for free — adaptive
			// deferral must bring the coalescing transport back to parity
			// or better against the uncoalesced plane.
			if b == "on" && adpt.wirePerOp > off.wirePerOp {
				fmt.Printf("FAIL: batching=on: adaptive flush sent more wire messages per op than uncoalesced (%v vs %v)\n",
					adpt.wirePerOp, off.wirePerOp)
				failed = true
			}
		}
		if b != "off" {
			continue // the plain batching-on pair has nothing to merge; informational only
		}
		if perPayload < minReduction {
			fmt.Printf("FAIL: batching=off per-payload reduction %.1f%% < required %.1f%%\n", perPayload, minReduction)
			failed = true
		}
		if on.wirePerOp >= off.wirePerOp {
			fmt.Printf("FAIL: batching=off: coalesced run sent no fewer wire messages per op (%v vs %v)\n",
				on.wirePerOp, off.wirePerOp)
			failed = true
		}
	}
	return failed
}

// checkABLTL2 verifies the invisible-read claim: on every read-mostly
// workload row pair, tl2 must cut wire messages per operation by at least
// minReduction percent vs visible, without losing throughput. Returns true
// on failure.
func checkABLTL2(res *benchResult, grid *table, minReduction float64) bool {
	workCol := colIndex(grid, "workload")
	protoCol := colIndex(grid, "protocol")
	tputCol := colIndex(grid, "ops/ms")
	wireCol := colIndex(grid, "wire/op")

	type rowVals struct{ tput, wirePerOp float64 }
	rows := map[string]map[string]rowVals{} // workload -> protocol -> values
	order := []string{}
	for _, row := range grid.Rows {
		w := row[workCol]
		if rows[w] == nil {
			order = append(order, w)
		}
		rows[w] = appendRow(rows[w], row[protoCol], rowVals{
			tput: cell(row, tputCol), wirePerOp: cell(row, wireCol),
		})
	}
	failed := false
	for _, w := range order {
		vis, okVis := rows[w]["visible"]
		tl2, okTL2 := rows[w]["tl2"]
		if !okVis || !okTL2 {
			fatal(fmt.Errorf("missing visible/tl2 pair for workload=%s", w))
		}
		if vis.wirePerOp <= 0 {
			fatal(fmt.Errorf("workload=%s: visible row reports %v wire msgs/op", w, vis.wirePerOp))
		}
		reduction := 100 * (1 - tl2.wirePerOp/vis.wirePerOp)
		fmt.Printf("%s backend=%s workload=%s: wire msgs/op %v -> %v (%.1f%% reduction), throughput %v -> %v ops/ms\n",
			res.ID, res.Backend, w, vis.wirePerOp, tl2.wirePerOp, reduction, vis.tput, tl2.tput)
		if reduction < minReduction {
			fmt.Printf("FAIL: workload=%s: tl2 wire-msgs/op reduction %.1f%% < required %.1f%%\n", w, reduction, minReduction)
			failed = true
		}
		if tl2.tput < vis.tput {
			fmt.Printf("FAIL: workload=%s: tl2 throughput %v below visible %v\n", w, tl2.tput, vis.tput)
			failed = true
		}
	}
	return failed
}

// checkScalePlace verifies the hierarchical-placement-at-scale claims over
// the scaleplace grid (skew x policy rows). Returns true on failure.
func checkScalePlace(res *benchResult, grid *table, minTput, maxImbalance, maxWireOp float64) bool {
	skewCol := colIndex(grid, "skew")
	polCol := colIndex(grid, "policy")
	tputCol := colIndex(grid, "ops/ms")
	imbCol := colIndex(grid, "node imbalance")
	wireCol := colIndex(grid, "wire/op")
	leavesCol := colIndex(grid, "leaves")
	univCol := colIndex(grid, "leaf universe")
	remoteCol := colIndex(grid, "remote %")

	type rowVals struct{ tput, imb, wire, leaves, univ, remote float64 }
	rows := map[string]map[string]rowVals{} // skew -> policy -> values
	order := []string{}
	failed := false
	for _, row := range grid.Rows {
		s, p := row[skewCol], row[polCol]
		if rows[s] == nil {
			order = append(order, s)
		}
		rows[s] = appendRow(rows[s], p, rowVals{
			tput: cell(row, tputCol), imb: cell(row, imbCol), wire: cell(row, wireCol),
			leaves: cell(row, leavesCol), univ: cell(row, univCol), remote: cell(row, remoteCol),
		})
		if maxWireOp >= 0 && cell(row, wireCol) > maxWireOp {
			fmt.Printf("FAIL: skew=%s policy=%s: wire/op %v exceeds -maxwireop %v\n", s, p, cell(row, wireCol), maxWireOp)
			failed = true
		}
		if maxImbalance >= 0 && p != "hash" && cell(row, imbCol) > maxImbalance {
			fmt.Printf("FAIL: skew=%s policy=%s: node imbalance %v exceeds -maximbalance %v\n", s, p, cell(row, imbCol), maxImbalance)
			failed = true
		}
	}
	for _, s := range order {
		hash, okH := rows[s]["hash"]
		flat, okA := rows[s]["adaptive"]
		hier, okR := rows[s]["hier"]
		if !okH || !okA || !okR {
			fatal(fmt.Errorf("skew=%s: missing hash/adaptive/hier triple", s))
		}
		// The hierarchical directory only materializes what the run touched;
		// a flat table would hold (and scan) the whole leaf universe.
		if hier.univ <= 0 || 10*hier.leaves >= hier.univ {
			fmt.Printf("FAIL: skew=%s: hier materialized %v leaves of a %v-leaf universe (not ≪)\n", s, hier.leaves, hier.univ)
			failed = true
		}
		fmt.Printf("%s backend=%s skew=%s: ops/ms hash %v adaptive %v hier %v; remote %% adaptive %v hier %v; leaves %v/%v\n",
			res.ID, res.Backend, s, hash.tput, flat.tput, hier.tput, flat.remote, hier.remote, hier.leaves, hier.univ)
		if !strings.HasPrefix(s, "zipf") {
			continue // uniform rows are informational: every policy converges
		}
		if hash.tput > 0 && hier.tput < minTput*hash.tput {
			fmt.Printf("FAIL: skew=%s: hier throughput %v below %.2fx hash %v\n", s, hier.tput, minTput, hash.tput)
			failed = true
		}
		// The co-mapping claim: locality-aware migration must strictly cut
		// the remote share flat adaptive ends up with.
		if hier.remote >= flat.remote {
			fmt.Printf("FAIL: skew=%s: hier remote share %v%% not below flat adaptive's %v%%\n", s, hier.remote, flat.remote)
			failed = true
		}
	}
	return failed
}

// checkNetSmoke validates a cross-process net-backend artifact: the backend
// tag must read "net", every table must be rectangular and non-empty, and at
// least one numeric cell must be positive — a run whose processes failed to
// hand off a single transaction produces all-zero throughput grids even when
// the JSON parses. Returns true on failure.
func checkNetSmoke(res *benchResult, path string) bool {
	failed := false
	if res.Backend != "net" {
		fmt.Printf("FAIL: %s: backend %q, want \"net\"\n", path, res.Backend)
		failed = true
	}
	if len(res.Tables) == 0 {
		fmt.Printf("FAIL: %s: no tables\n", path)
		return true
	}
	positive := 0
	for _, t := range res.Tables {
		if len(t.Columns) == 0 || len(t.Rows) == 0 {
			fmt.Printf("FAIL: table %s: empty (%d columns, %d rows)\n", t.ID, len(t.Columns), len(t.Rows))
			failed = true
			continue
		}
		for ri, row := range t.Rows {
			if len(row) != len(t.Columns) {
				fmt.Printf("FAIL: table %s row %d: %d cells for %d columns\n", t.ID, ri, len(row), len(t.Columns))
				failed = true
				continue
			}
			for _, c := range row {
				if v, err := strconv.ParseFloat(c, 64); err == nil && v > 0 {
					positive++
				}
			}
		}
	}
	if positive == 0 {
		fmt.Printf("FAIL: %s: no positive numeric cell in any table (zero-commit run?)\n", path)
		failed = true
	}
	if !failed {
		fmt.Printf("%s: net artifact OK (%d tables, %d positive cells)\n", path, len(res.Tables), positive)
	}
	return failed
}

// chromeEvent mirrors the trace_event fields the validator needs.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Args map[string]any `json:"args"`
}

// checkTrace validates a chrome trace_event JSON file's schema and, on
// request, the presence of taxonomy abort spans and coalesced envelopes.
// Returns true on failure.
func checkTrace(path string, requireAbort, requireEnvelope bool) bool {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		fatal(fmt.Errorf("%s: not valid trace_event JSON: %v", path, err))
	}
	if len(f.TraceEvents) == 0 {
		fatal(fmt.Errorf("%s: empty traceEvents array", path))
	}
	known := map[string]bool{"X": true, "i": true, "s": true, "f": true, "M": true}
	abortSpans, envelopes := 0, 0
	failed := false
	for i, e := range f.TraceEvents {
		if !known[e.Ph] {
			fmt.Printf("FAIL: event %d (%q): unknown phase type %q\n", i, e.Name, e.Ph)
			failed = true
		}
		if e.Ph != "M" && (e.Ts == nil || *e.Ts < 0) {
			fmt.Printf("FAIL: event %d (%q): missing or negative ts\n", i, e.Name)
			failed = true
		}
		if e.Ph == "X" {
			if outcome, ok := e.Args["outcome"].(string); ok && outcome == "abort" {
				if reason, ok := e.Args["reason"].(string); ok && reason != "" {
					abortSpans++
				}
			}
		}
		if e.Ph == "i" && strings.HasPrefix(e.Name, "envelope(") {
			envelopes++
		}
	}
	fmt.Printf("%s: %d events, %d taxonomy abort spans, %d coalesced envelopes\n",
		path, len(f.TraceEvents), abortSpans, envelopes)
	if requireAbort && abortSpans == 0 {
		fmt.Println("FAIL: no abort span carrying a taxonomy reason")
		failed = true
	}
	if requireEnvelope && envelopes == 0 {
		fmt.Println("FAIL: no coalesced envelope instant (>= 2 payloads sharing a wire message)")
		failed = true
	}
	return failed
}

// checkBaseline gates a fresh artifact against a committed one. Sim-backend
// tables are deterministic, so any cell difference is a real behavior change
// — exactly what the trace-off no-regression guarantee forbids. Returns true
// on failure.
func checkBaseline(fresh *benchResult, freshPath, basePath string, maxSlowdown float64) bool {
	buf, err := os.ReadFile(basePath)
	if err != nil {
		fatal(err)
	}
	var base benchResult
	if err := json.Unmarshal(buf, &base); err != nil {
		fatal(fmt.Errorf("%s: %v", basePath, err))
	}
	failed := false
	if fresh.ID != base.ID || fresh.Backend != base.Backend {
		fmt.Printf("FAIL: artifact mismatch: fresh %s/%s vs baseline %s/%s\n",
			fresh.ID, fresh.Backend, base.ID, base.Backend)
		return true
	}
	if base.Backend != "sim" {
		fatal(fmt.Errorf("%s: -baseline gates deterministic sim artifacts only (got backend %q)", basePath, base.Backend))
	}
	if len(fresh.Tables) != len(base.Tables) {
		fmt.Printf("FAIL: table count %d vs baseline %d\n", len(fresh.Tables), len(base.Tables))
		return true
	}
	for ti, bt := range base.Tables {
		ft := fresh.Tables[ti]
		if ft.ID != bt.ID || fmt.Sprint(ft.Columns) != fmt.Sprint(bt.Columns) {
			fmt.Printf("FAIL: table %d schema changed: %s%v vs baseline %s%v\n",
				ti, ft.ID, ft.Columns, bt.ID, bt.Columns)
			failed = true
			continue
		}
		if len(ft.Rows) != len(bt.Rows) {
			fmt.Printf("FAIL: table %s: %d rows vs baseline %d\n", bt.ID, len(ft.Rows), len(bt.Rows))
			failed = true
			continue
		}
		for ri, brow := range bt.Rows {
			for ci, bcell := range brow {
				if ft.Rows[ri][ci] != bcell {
					fmt.Printf("FAIL: table %s row %d col %q: %q vs baseline %q\n",
						bt.ID, ri, bt.Columns[ci], ft.Rows[ri][ci], bcell)
					failed = true
				}
			}
		}
	}
	if maxSlowdown > 0 && base.ElapsedMS > 0 {
		ratio := float64(fresh.ElapsedMS) / float64(base.ElapsedMS)
		fmt.Printf("%s: elapsed %dms vs baseline %dms (%.2fx)\n", fresh.ID, fresh.ElapsedMS, base.ElapsedMS, ratio)
		if ratio > maxSlowdown {
			fmt.Printf("FAIL: elapsed ratio %.2fx exceeds -maxslowdown %.2fx\n", ratio, maxSlowdown)
			failed = true
		}
	}
	if !failed {
		fmt.Printf("%s: identical to baseline %s (%d tables)\n", freshPath, basePath, len(base.Tables))
	}
	return failed
}

func appendRow[V any](m map[string]V, key string, v V) map[string]V {
	if m == nil {
		m = map[string]V{}
	}
	m[key] = v
	return m
}

// cell parses one numeric table cell.
func cell(row []string, col int) float64 {
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		fatal(fmt.Errorf("row %v: bad numeric cell %q", row, row[col]))
	}
	return v
}

func findTable(ts []*table, id string) *table {
	for _, t := range ts {
		if t.ID == id {
			return t
		}
	}
	return nil
}

func colIndex(t *table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	fatal(fmt.Errorf("table %s has no %q column (have %v)", t.ID, name, t.Columns))
	return -1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
