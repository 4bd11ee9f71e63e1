// Package experiments reproduces every evaluation artifact of the paper —
// Theorems 1-3, Example 1, Table II — plus the extensions the paper flags
// as future work (paging effects, block sampling) and the baseline
// comparisons its related-work section implies. The paper's own experiment
// section was omitted for space, so these experiments ARE the empirical
// validation of its analytical claims.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table renders fixed-width ASCII tables in the style of the paper's
// Table I/II.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; cell count must match the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Columns)))
	}
	t.rows = append(t.rows, cells)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, note := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// CSV renders the table as comma-separated values (figure-regeneration
// format for external plotting).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// f4 formats a float with 4 decimals; f6 with 6; g formats adaptively.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
