package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// row is one measured row of an experiment. Its columns are defined once,
// here: header names them, cells formats one row's values, and both the
// aligned text table and the CSV file (for plotting tools) print exactly
// these strings.
type row interface {
	header() []string
	cells() []string
}

// Table is one experiment's result: a header and the rows' cells.
type Table struct {
	Header []string
	Rows   [][]string
}

// TableOf collects rows into their table.
func TableOf[R row](rows []R) Table {
	var zero R
	t := Table{Header: zero.header(), Rows: make([][]string, 0, len(rows))}
	for _, r := range rows {
		t.Rows = append(t.Rows, r.cells())
	}
	return t
}

// Write prints the table as CSV, or as text in aligned columns.
func (t Table) Write(w io.Writer, csvOut bool) error {
	if csvOut {
		cw := csv.NewWriter(w)
		if err := cw.Write(t.Header); err != nil {
			return err
		}
		return cw.WriteAll(t.Rows)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, cells := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

// report prints one measured row to progress as name=value pairs.
func report(progress io.Writer, experiment string, r row) {
	if progress == nil {
		return
	}
	var b strings.Builder
	b.WriteString(experiment)
	header := r.header()
	for i, c := range r.cells() {
		fmt.Fprintf(&b, " %s=%s", header[i], c)
	}
	fmt.Fprintln(progress, b.String())
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }
func itoa(i int64) string   { return strconv.FormatInt(i, 10) }
