// Package sweep drives the paper's evaluation: one entry point per table
// and figure (Table 2, Table 3, Figs. 2, 7–14), each running the required
// functional and timing simulations and printing the same rows/series the
// paper reports. A memoizing Runner shares baseline runs and traces across
// experiments. Every simulation it makes is one Cell (cell.go), computed by
// Runner.Run through one functional path or one timing-replay path.
package sweep

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a formatted experiment result: one row per benchmark (plus an
// average row where the paper reports one), one column per series.
type Table struct {
	Title   string
	Columns []string // first column is the row label
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; the first cell is the label.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	writeRow(dashes(widths))
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ratio formats a reduction factor.
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// norm formats a normalized quantity.
func norm(v float64) string { return fmt.Sprintf("%.3f", v) }

// mean averages a slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// sortedKeys returns map keys in order, for deterministic output.
func sortedKeys[K int | float64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
