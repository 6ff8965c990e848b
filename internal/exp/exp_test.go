package exp

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// tiny is the cheapest scale that still exercises every code path.
var tiny = Scale{Duration: 800 * time.Microsecond, SizeDiv: 16, Cores: []int{4, 8}, Seed: 3}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"settings", "fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c", "fig5d",
		"fig6a", "fig6b", "fig7a", "fig7b",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"abltl2",
		"scaleplace",
	}
	for _, w := range want {
		if _, ok := ByID(w); !ok {
			t.Errorf("experiment %q not registered", w)
		}
	}
	if len(All) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All), len(want))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig5a"); !ok {
		t.Fatal("fig5a missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:      "demo",
		Title:   "Demo",
		Columns: []string{"x", "y"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("wide-label", 12345.0)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"## demo", "x", "y", "wide-label", "12345", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	sb.Reset()
	tab.CSV(&sb)
	if !strings.HasPrefix(sb.String(), "x,y\n1,2.500\n") {
		t.Errorf("csv output:\n%s", sb.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{0: "0", 0.5: "0.500", 42.42: "42.4", 1234567: "1234567"}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestEveryExperimentRunsAtTinyScale smoke-runs the full registry and
// validates the result tables are well-formed.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny sweep still takes a few seconds")
	}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(tiny, Overrides{})
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.ID == "" || tab.Title == "" {
					t.Errorf("table missing ID/title: %+v", tab)
				}
				if len(tab.Rows) == 0 {
					t.Errorf("table %s has no rows", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %s row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
					}
				}
			}
		})
	}
}

// Qualitative shape checks at a small but meaningful scale. Generous
// tolerances: these assert orderings, not magnitudes.
func TestShapeDedicatedBeatsMultitask(t *testing.T) {
	sc := Scale{Duration: 3 * time.Millisecond, SizeDiv: 8, Cores: []int{48}, Seed: 5}
	tabs := fig4a(sc, Overrides{})
	row := tabs[0].Rows[len(tabs[0].Rows)-1]
	multi, ded := row[1], row[3] // lf2 columns
	if parse(t, ded) <= parse(t, multi) {
		t.Errorf("dedicated (%s) should beat multitask (%s) at 48 cores", ded, multi)
	}
}

func TestShapeElasticReadWins(t *testing.T) {
	sc := Scale{Duration: 4 * time.Millisecond, SizeDiv: 16, Cores: []int{16}, Seed: 5}
	tabs := fig7b(sc, Overrides{})
	row := tabs[0].Rows[0]
	if parse(t, row[1]) <= 1.0 {
		t.Errorf("elastic-read speedup over normal = %s, want > 1", row[1])
	}
}

func TestShapeFairCMThrottlesBalanceCore(t *testing.T) {
	sc := Scale{Duration: 6 * time.Millisecond, SizeDiv: 8, Cores: []int{16}, Seed: 5}
	tabs := fig5c(sc, Overrides{})
	row := tabs[0].Rows[0] // columns: cores, wholly, offset-greedy, faircm, backoff
	wholly, faircm := parse(t, row[1]), parse(t, row[3])
	if faircm <= wholly {
		t.Errorf("FairCM (%v) should beat Wholly (%v) with one balance core", faircm, wholly)
	}
}

// TestShapeTL2KillsReadTraffic checks the abltl2 headline at shape scale:
// on both read-mostly workloads TL2 sends at least 60% fewer wire messages
// per operation than the visible protocol — the per-read round trips are
// the traffic, and TL2 deletes them — without losing throughput. The live
// subtest keeps only what one run can show: TL2 reads were served locally.
func TestShapeTL2KillsReadTraffic(t *testing.T) {
	sc := Scale{Duration: 3 * time.Millisecond, SizeDiv: 8, Cores: []int{48}, Seed: 5}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			tab := ablTL2(be.scale(sc), be.ov)[0]
			for _, w := range []string{"bank-zipf", "intset-lookup"} {
				vis := rowWhere(t, tab, "workload", w, "protocol", "visible")
				tl2 := rowWhere(t, tab, "workload", w, "protocol", "tl2")
				nonEmpty(t, tab, vis)
				nonEmpty(t, tab, tl2)
				if be.live {
					if rd := num(t, tab, tl2, "local rd/op"); rd <= 0 {
						t.Errorf("%s: tl2 served %v local reads per op, want > 0", w, rd)
					}
					continue
				}
				visWire, tl2Wire := num(t, tab, vis, "wire/op"), num(t, tab, tl2, "wire/op")
				if visWire <= 0 || tl2Wire > 0.4*visWire {
					t.Errorf("%s: tl2 wire/op %v vs visible %v: reduction below 60%%", w, tl2Wire, visWire)
				}
				if visTput, tl2Tput := num(t, tab, vis, "ops/ms"), num(t, tab, tl2, "ops/ms"); tl2Tput < visTput {
					t.Errorf("%s: tl2 throughput %v ops/ms below visible %v", w, tl2Tput, visTput)
				}
			}
		})
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// backends is the table the claim tests that gate both backends run over.
// A live row is wall-clock time of 48 goroutines on however many CPUs the
// host has, so live subtests assert only quantities computed within one
// run; comparing two such rows is bench/'s job (15 s windows).
var backends = []backend{
	{name: "sim"},
	{name: "live", live: true, ov: Overrides{Sys: func(c *core.Config) { c.Backend = core.BackendLive }}},
}

type backend struct {
	name string
	live bool
	ov   Overrides
}

// scale is the scale a claim test runs sc at on this backend: unchanged on
// sim; on live the window is stretched to at least 30 ms, because a
// 2-3 ms wall-clock window on a loaded 2-vCPU host can pass before any
// worker goroutine is scheduled and complete nothing.
func (be backend) scale(sc Scale) Scale {
	if be.live && sc.Duration < 30*time.Millisecond {
		sc.Duration = 30 * time.Millisecond
	}
	return sc
}

// nonEmpty fails the subtest if row's window completed no operation: every
// ratio in such a row is 0/0 rendered as 0, which would read as a claim
// failing (or holding) when nothing was measured.
func nonEmpty(t *testing.T, tab *Table, row []string) {
	t.Helper()
	if num(t, tab, row, "ops/ms") == 0 {
		t.Fatalf("table %s: row completed 0 ops: %v", tab.ID, row)
	}
}

// colIndex finds a column by name, so a reordered table fails loudly
// instead of comparing the wrong cells.
func colIndex(t *testing.T, tab *Table, col string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return i
		}
	}
	t.Fatalf("table %s has no %q column (have %v)", tab.ID, col, tab.Columns)
	return -1
}

// num parses the cell of row under the named column.
func num(t *testing.T, tab *Table, row []string, col string) float64 {
	t.Helper()
	return parse(t, row[colIndex(t, tab, col)])
}

// rowWhere returns the one row whose cells equal every (column, value) pair.
func rowWhere(t *testing.T, tab *Table, kv ...string) []string {
	t.Helper()
	var found []string
	for _, row := range tab.Rows {
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			match = match && row[colIndex(t, tab, kv[i])] == kv[i+1]
		}
		if match {
			if found != nil {
				t.Fatalf("table %s: more than one row matches %v", tab.ID, kv)
			}
			found = row
		}
	}
	if found == nil {
		t.Fatalf("table %s: no row matches %v", tab.ID, kv)
	}
	return found
}

// TestShapeHierPlacementAtScale checks the scaleplace claims on fresh runs:
// the hierarchical directory materializes far fewer leaves than the universe
// a flat table would scan; on the uniform rows, where no mapping can gain,
// hier moves nothing, holds no leaves and runs no more than 1 % behind hash
// (the interleaved start assignment is often ahead of it); and on the Zipf
// rows hier holds hash's throughput while pulling the remote-access share
// below the uniform hier row's — the dormant interleaved start's — with
// bounded node imbalance and wire traffic. Live keeps leaves vs universe,
// the one claim that does not compare two rows.
//
// The sim runs are Quick at seeds 1-8. A Quick Zipf row is 3 ms at a ~36 %
// commit rate with one to six migrations in it, so two rows of one seed
// differ by seed-to-seed noise (hash alone spans 298-371 ops/ms): the two
// row comparisons are asserted on the medians over the eight seeds, the
// per-row bounds on every seed. The seed-independent form of the co-mapping
// claim is core's comap test; the Default-scale table is docs/perf/PR-21.md.
func TestShapeHierPlacementAtScale(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			seeds := 8
			if be.live {
				seeds = 1
			}
			cells := map[string][]float64{} // "skew policy column" -> one value a seed
			for seed := 1; seed <= seeds; seed++ {
				sc := be.scale(Quick)
				sc.Seed = uint64(seed)
				tab := scalePlace(sc, be.ov)[0]
				for _, row := range tab.Rows {
					skew, policy := row[colIndex(t, tab, "skew")], row[colIndex(t, tab, "policy")]
					nonEmpty(t, tab, row)
					if leaves, univ := num(t, tab, row, "leaves"), num(t, tab, row, "leaf universe"); univ <= 0 || 10*leaves >= univ {
						t.Errorf("seed %d %s %s: %v leaves of a %v-leaf universe (not ≪)", seed, skew, policy, leaves, univ)
					}
					if be.live {
						continue
					}
					if w := num(t, tab, row, "wire/op"); w > 30 {
						t.Errorf("seed %d %s %s: wire/op %v, want <= 30", seed, skew, policy, w)
					}
					if imb := num(t, tab, row, "node imbalance"); policy != "hash" && imb > 2 {
						t.Errorf("seed %d %s %s: node imbalance %v, want <= 2", seed, skew, policy, imb)
					}
					if skew == "uniform" && policy != "hash" {
						h := num(t, tab, rowWhere(t, tab, "skew", skew, "policy", "hash"), "ops/ms")
						if m, l, r := num(t, tab, row, "migrations"), num(t, tab, row, "leaves"), num(t, tab, row, "ops/ms"); m != 0 || l != 0 || r < 0.99*h {
							t.Errorf("seed %d uniform %s: %v migrations, %v leaves, %v ops/ms vs hash %v; want a dormant heat plane no more than 1%% behind hash", seed, policy, m, l, r, h)
						}
					}
					for _, col := range []string{"ops/ms", "remote %"} {
						k := skew + " " + policy + " " + col
						cells[k] = append(cells[k], num(t, tab, row, col))
					}
				}
			}
			if be.live {
				return
			}
			med := func(k string) float64 {
				v := slices.Sorted(slices.Values(cells[k]))
				return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
			}
			if h, r := med("zipf-0.99 hash ops/ms"), med("zipf-0.99 hier ops/ms"); r < 0.9*h {
				t.Errorf("zipf: hier median %v ops/ms below 0.9x hash %v", r, h)
			}
			if u, r := med("uniform hier remote %"), med("zipf-0.99 hier remote %"); r >= u {
				t.Errorf("zipf: hier median remote share %v%% not below the interleaved start's %v%% (uniform hier)", r, u)
			}
		})
	}
}
