package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// tiny is the cheapest scale that still exercises every code path.
var tiny = Scale{Duration: 800 * time.Microsecond, SizeDiv: 16, Cores: []int{4, 8}, Seed: 3}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"settings", "fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c", "fig5d",
		"fig6a", "fig6b", "fig7a", "fig7b",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"ablbatch", "ablpoll", "ablgran", "ablplace", "ablro", "abltl2",
		"extskip", "extirrev", "scaleplace",
	}
	ids := IDs()
	for _, w := range want {
		found := false
		for _, id := range ids {
			if id == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("experiment %q not registered", w)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d (%v)", len(ids), len(want), ids)
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
// the traffic, and TL2 deletes them.
func TestShapeTL2KillsReadTraffic(t *testing.T) {
	sc := Scale{Duration: 3 * time.Millisecond, SizeDiv: 8, Cores: []int{48}, Seed: 5}
	tabs := ablTL2(sc, Overrides{})
	rows := tabs[0].Rows // (visible, tl2) row pairs per workload
	if len(rows) == 0 || len(rows)%2 != 0 {
		t.Fatalf("abltl2 produced %d rows, want non-empty pairs", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i][1] != "visible" || rows[i+1][1] != "tl2" {
			t.Fatalf("row pair %d is (%s, %s), want (visible, tl2)", i, rows[i][1], rows[i+1][1])
		}
		visWire, tl2Wire := parse(t, rows[i][3]), parse(t, rows[i+1][3])
		if tl2Wire > 0.4*visWire {
			t.Errorf("%s: tl2 wire/op %v vs visible %v: reduction below 60%%",
				rows[i][0], tl2Wire, visWire)
		}
	}
}

// TestShapeAdaptivePlacementTracksHashUnderSkew checks the ablplace
// headline on its hot-read rows: adaptive stays at least competitive with
// hash at every skew (generous margin — the two are typically within a few
// percent, with adaptive ahead).
func TestShapeAdaptivePlacementTracksHashUnderSkew(t *testing.T) {
	sc := Scale{Duration: 4 * time.Millisecond, SizeDiv: 4, Cores: []int{48}, Seed: 5}
	tabs := ablPlace(sc, Overrides{})
	rows := tabs[0].Rows // pairs: hash, adaptive per skew level
	if len(rows) == 0 || len(rows)%2 != 0 {
		t.Fatalf("ablplace produced %d rows, want non-empty policy pairs", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i][1] != "hash" || rows[i+1][1] != "adaptive" {
			t.Fatalf("row pair %d is (%s, %s), want (hash, adaptive)", i, rows[i][1], rows[i+1][1])
		}
		skew := rows[i][0]
		hash, adaptive := parse(t, rows[i][2]), parse(t, rows[i+1][2])
		if adaptive < 0.9*hash {
			t.Errorf("%s: adaptive %.1f ops/ms fell >10%% behind hash %.1f", skew, adaptive, hash)
		}
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

// TestShapeCoalescingRecoversBatchingWin checks the ablbatch headline: with
// protocol batching off, transport coalescing must cut wire messages by at
// least 20% on the contended scatter-write workload (the acceptance bar of
// the message-plane refactor), and with protocol batching on it must not
// inflate them by more than noise — while adaptive flush must make the
// coalescing transport WIN on that plane, where plain coalescing finds
// nothing left to merge.
func TestShapeCoalescingRecoversBatchingWin(t *testing.T) {
	sc := Scale{Duration: 2 * time.Millisecond, SizeDiv: 8, Cores: []int{8}, Seed: 5}
	tabs := ablBatch(sc, Overrides{})
	rows := tabs[0].Rows // (batching, mode) grid: on x off/on/adaptive, off x off/on/adaptive
	if len(rows) != 6 {
		t.Fatalf("ablbatch grid has %d rows, want 6", len(rows))
	}
	batchedOff, batchedOn, batchedAdpt := parse(t, rows[0][3]), parse(t, rows[1][3]), parse(t, rows[2][3])
	plainOff, plainOn, plainAdpt := parse(t, rows[3][3]), parse(t, rows[4][3]), parse(t, rows[5][3])
	if plainOn > 0.8*plainOff {
		t.Errorf("batching off: coalescing sent %.0f wire msgs vs %.0f — want >= 20%% reduction", plainOn, plainOff)
	}
	if batchedOn > 1.05*batchedOff {
		t.Errorf("batching on: coalescing inflated wire msgs %.0f vs %.0f", batchedOn, batchedOff)
	}
	if batchedAdpt >= batchedOff {
		t.Errorf("batching on: adaptive flush sent %.0f wire msgs vs %.0f uncoalesced — the deferral must win this plane", batchedAdpt, batchedOff)
	}
	if plainAdpt >= plainOn {
		t.Errorf("batching off: adaptive flush sent %.0f wire msgs vs %.0f plain coalescing — deferral found nothing extra to merge", plainAdpt, plainOn)
	}
	// payloads/wire must exceed 1 exactly where merging happens.
	if ppw := parse(t, rows[4][5]); ppw <= 1.1 {
		t.Errorf("batching off + coalesce: payloads/wire = %.3f, want > 1.1", ppw)
	}
}
