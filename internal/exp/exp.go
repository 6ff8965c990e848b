// Package exp regenerates every table and figure of the paper's evaluation
// (§5-§7). Each experiment is registered under the paper's figure ID
// (fig4a ... fig8d, settings) plus two experiments beyond the paper
// (abltl2, scaleplace), and produces one or more text tables whose rows
// correspond to the points of the original plot.
//
// Experiments run at a configurable Scale: the Full scale uses the paper's
// structure sizes; smaller scales shrink data structures, input sizes and
// the measurement window so the whole suite stays cheap enough for CI.
// Shapes (who wins, where the curves cross) are preserved across scales,
// and the claims the tables back are this package's TestShape* and
// fingerprint tests; README "Reproducing the paper's figures" has the
// commands.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Scale controls the cost of an experiment run.
type Scale struct {
	// Duration is the virtual measurement window per data point.
	Duration time.Duration
	// SizeDiv divides data-structure sizes and the MapReduce input
	// (which is additionally pre-scaled from the paper's gigabytes).
	SizeDiv int
	// Cores is the total-core sweep of the x-axes.
	Cores []int
	// Seed drives all randomness.
	Seed uint64
	// Objects, when non-zero, overrides the per-experiment default object
	// count of the experiments that have a scale dimension (scaleplace).
	// SizeDiv does not apply to it: Large pins the count directly.
	Objects int
}

// Full approximates the paper's parameters (minutes of wall-clock time).
var Full = Scale{Duration: 40 * time.Millisecond, SizeDiv: 1, Cores: []int{2, 4, 8, 16, 32, 48}, Seed: 1}

// Default is a balanced scale for interactive use.
var Default = Scale{Duration: 15 * time.Millisecond, SizeDiv: 2, Cores: []int{2, 4, 8, 16, 32, 48}, Seed: 1}

// Quick is the CI/bench scale: small structures, short windows.
var Quick = Scale{Duration: 3 * time.Millisecond, SizeDiv: 8, Cores: []int{2, 8, 24, 48}, Seed: 1}

// Large opens the scale dimension beyond the paper's 48-core SCC: a
// million-object working set on a 256-core mesh. Only the experiments with
// a scale dimension (scaleplace) react to Objects and to core counts above
// 48; the figure experiments stay within the paper's platform.
var Large = Scale{Duration: 120 * time.Millisecond, SizeDiv: 1, Cores: []int{256}, Seed: 1, Objects: 1 << 20}

// div scales a size down, with a floor.
func (sc Scale) div(n, floor int) int {
	v := n / sc.SizeDiv
	if v < floor {
		return floor
	}
	return v
}

// Table is one rendered result grid. The first column is the x-axis.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; cells may be strings or numbers.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case uint64:
			row[i] = fmt.Sprintf("%d", v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Experiment is one registered reproduction target. Run executes it at
// the given scale under the given cross-cutting overrides (see Overrides);
// experiments hold no mutable global state, so concurrent Run calls with
// different overrides are safe.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale, Overrides) []*Table
}

// All lists every experiment in paper order.
var All []*Experiment

func register(id, title string, run func(Scale, Overrides) []*Table) {
	All = append(All, &Experiment{ID: id, Title: title, Run: run})
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}
