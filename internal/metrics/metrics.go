// Package metrics provides the statistics plumbing for the experiment
// harness: streaming mean accumulators, multi-seed aggregation
// and plain-text table rendering in the shape of the paper's figures.
package metrics

import (
	"fmt"
	"strings"
)

// Agg is a streaming mean (Welford's update). The zero value is ready
// to use.
type Agg struct {
	n    int
	mean float64
}

// Add folds x into the aggregate.
func (a *Agg) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
}

// N returns the number of samples.
func (a *Agg) N() int { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Agg) Mean() float64 { return a.mean }

// Table is a simple aligned text table, used to print the paper's
// figure/table data.
type Table struct {
	Title string
	Cols  []string
	rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Cols))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a ratio as a percentage with one decimal, e.g. 0.769 ->
// "76.9%".
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// F1 formats a float with one decimal.
func F1(x float64) string { return fmt.Sprintf("%.1f", x) }

// F2 formats a float with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// KB formats a byte count as kilobytes with one decimal.
func KB(bytes float64) string { return fmt.Sprintf("%.1fkB", bytes/1000) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
