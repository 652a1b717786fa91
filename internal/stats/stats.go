// Package stats provides the small numeric and table utilities the
// experiment harness shares: the paper's "% speedup" convention and
// aligned text tables for reproducing the paper's result listings.
package stats

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// PercentGain converts a speedup ratio to the paper's "% speedup"
// convention: 1.30x -> 30%.
func PercentGain(speedup float64) float64 { return (speedup - 1) * 100 }

// Table accumulates rows and renders them with aligned columns, the format
// all experiment outputs share.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v, floats with %.3g
// where that reads better handled by the caller.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			if i < len(widths) {
				fmt.Fprintf(bw, "%-*s", widths[i], c)
			} else {
				fmt.Fprint(bw, c)
			}
		}
		fmt.Fprintln(bw)
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return bw.Flush()
}
