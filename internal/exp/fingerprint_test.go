package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// figFingerprints pins the rendered output of every fig4–fig8 experiment,
// and of abltl2, at a tiny scale across a seed matrix, plus the Quick-scale
// seed-1 tables of fig5a and scaleplace, to the tables committed in
// testdata/fingerprints.golden. The rendered tables are a function of the
// run's Stats (ops, commits, message counts, latencies in virtual time), so
// identical tables mean same seed ⇒ same simulated behaviour, bit for bit.
//
// A change that legitimately alters simulated behaviour (a protocol or
// timing change) re-captures the file with -update, and the diff shows the
// cells that moved; this test exists so that such changes are loud and
// deliberate, never accidental. Irrevocables are pinned in internal/core
// (TestIrrevocableMixFingerprint), the coalescing plane there too
// (TestCoalesceSingletonPlaneBitIdentical, TestOutboxEnvelopeDelivered).
var figFingerprints = func() (rows []fingerprintRow) {
	figs := []string{"fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c", "fig5d",
		"fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig8c", "fig8d"}
	for _, seed := range []uint64{3, 9} {
		for _, id := range figs {
			rows = append(rows, fingerprintRow{id, "tiny", seed})
		}
	}
	return append(rows, fingerprintRow{"abltl2", "tiny", 3}, fingerprintRow{"abltl2", "tiny", 9},
		fingerprintRow{"fig5a", "quick", 1}, fingerprintRow{"scaleplace", "quick", 1})
}()

type fingerprintRow struct {
	id    string
	scale string // a key of fingerprintScales; Seed is overridden by seed
	seed  uint64
}

// fingerprintScales names the scales the golden rows ran at; changing one
// invalidates its rows.
var fingerprintScales = map[string]Scale{
	"tiny":  {Duration: 800 * time.Microsecond, SizeDiv: 16, Cores: []int{4, 8}},
	"quick": Quick,
}

const fingerprintGolden = "testdata/fingerprints.golden"

// TestFigureFingerprintsBitIdentical runs the fingerprint matrix on the sim
// backend and asserts the rendered tables equal the golden ones, naming
// every cell that differs. Regenerate with:
// go test ./internal/exp -run Fingerprints -update
func TestFigureFingerprintsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig4–fig8 seed matrix takes a few seconds")
	}
	golden := readGolden(t, fingerprintGolden)
	got := make([]string, len(figFingerprints))
	for i, c := range figFingerprints {
		t.Run(fmt.Sprintf("%s/seed%d", c.id, c.seed), func(t *testing.T) {
			e, ok := ByID(c.id)
			if !ok {
				t.Fatalf("experiment %q not registered", c.id)
			}
			sc := fingerprintScales[c.scale]
			sc.Seed = c.seed
			var sb strings.Builder
			for _, tab := range e.Run(sc, Overrides{}) {
				tab.Render(&sb)
			}
			got[i] = sb.String()
			if *update {
				return
			}
			want, ok := golden[goldenHeader(c.id, c.scale, c.seed)]
			if !ok {
				t.Fatalf("no golden row for %s %s seed %d (run with -update)", c.id, c.scale, c.seed)
			}
			for _, d := range cellDiff(want, got[i]) {
				t.Errorf("%s %s seed %d: %s", c.id, c.scale, c.seed, d)
			}
		})
	}
	if *update {
		var sb strings.Builder
		for i, c := range figFingerprints {
			body, ok := got[i], got[i] != ""
			if !ok { // a row -run filtered out keeps its golden table
				body = golden[goldenHeader(c.id, c.scale, c.seed)]
			}
			fmt.Fprintf(&sb, "%s\n%s", goldenHeader(c.id, c.scale, c.seed), body)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func goldenHeader(id, scale string, seed uint64) string {
	return "== " + id + " " + scale + " " + strconv.FormatUint(seed, 10)
}

// readGolden splits a golden file into its rows: each starts with an
// "== id scale seed" line and runs to the next one.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		if *update {
			return nil
		}
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	rows := map[string]string{}
	var head string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			head = strings.TrimSuffix(line, "\n")
			continue
		}
		rows[head] += line
	}
	return rows
}

// cellSep splits a rendered table line into its cells: Render pads every
// cell and joins them with two spaces.
var cellSep = regexp.MustCompile(`\s{2,}`)

// cellDiff compares two rendered tables line by line and describes each
// difference as a cell — table | row | column: old → new — or, for a line
// that is not a table row of the same shape, as the whole line.
func cellDiff(want, got string) []string {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	var table string
	var cols []string
	phase := 0 // 1: the next line is the column header, 2: the rule, 3: rows
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		switch {
		case strings.HasPrefix(w, "## "):
			table, _, _ = strings.Cut(w[3:], " ")
			phase = 1
		case phase == 1:
			cols, phase = cellSep.Split(w, -1), 2
		case phase == 2:
			phase = 3
		case w == "" || strings.HasPrefix(w, "note: "):
			phase = 0
		}
		if w == g {
			continue
		}
		wc, gc := cellSep.Split(w, -1), cellSep.Split(g, -1)
		if phase != 3 || len(wc) != len(cols) || len(gc) != len(cols) || wc[0] != gc[0] {
			out = append(out, fmt.Sprintf("line %d: %q → %q", i+1, w, g))
			continue
		}
		label := wc[0] // a row is named by its leading cells that are not numbers
		for j := 1; j < len(wc); j++ {
			if _, err := strconv.ParseFloat(wc[j], 64); err == nil {
				break
			}
			label += " " + wc[j]
		}
		for j := range wc {
			if wc[j] != gc[j] {
				out = append(out, fmt.Sprintf("%s | %s | %s: %s → %s", table, label, cols[j], wc[j], gc[j]))
			}
		}
	}
	return out
}
