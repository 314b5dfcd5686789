package bench

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strings"
	"testing"
	"time"
)

// render writes t in one format and fails the test on an error.
func render(t *testing.T, tab Table, csvOut bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Write(&buf, csvOut); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestCSVTable1(t *testing.T) {
	tab := TableOf([]Table1Row{{Dataset: "X", NumSets: 10, AvgSetSize: 2.5, SetsPerToken: 7}})
	rows := parseCSV(t, render(t, tab, true))
	if len(rows) != 2 || rows[1][0] != "X" || rows[1][1] != "10" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCSVTable2(t *testing.T) {
	tab := TableOf([]Table2Cell{{
		Dataset: "Y", Threshold: 0.5,
		CP:  Approx{Time: 100 * time.Millisecond, Recall: 0.95, Reps: 12},
		MH:  Approx{Time: time.Second, Recall: 0.81, Reps: 40, Below: true},
		ALL: 2 * time.Second, Results: 42,
	}})
	rows := parseCSV(t, render(t, tab, true))
	// A method that ran to its cap below the target is marked; the last
	// column is Figure 2's speedup, ALL/CP.
	if len(rows) != 2 || rows[1][2] != "0.1" || rows[1][7] != "12" || rows[1][8] != "40*" ||
		rows[1][9] != "42" || rows[0][10] != "speedup" || rows[1][10] != "20" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestEveryRowRendersOneTable: every experiment's row type names as many
// columns as it has cells, and the text and CSV forms of its table carry the
// same header and the same cells, row for row.
func TestEveryRowRendersOneTable(t *testing.T) {
	tables := map[string]Table{
		"table1": TableOf([]Table1Row{{Dataset: "A", NumSets: 5, AvgSetSize: 2.5, SetsPerToken: 3}}),
		"table2": TableOf([]Table2Cell{{Dataset: "A", Threshold: 0.5, CP: Approx{Time: time.Millisecond}, ALL: 3 * time.Millisecond}}),
		"fig3":   TableOf([]Fig3Point{{Dataset: "A", Param: "limit", Value: 250, Relative: 1}}),
		"table4": TableOf([]Table4Row{{Dataset: "A", Threshold: 0.5, Algorithm: "CP", Results: 23}}),
		"ablation": TableOf([]AblationRow{
			{Dataset: "A", Strategy: "adaptive", Approx: Approx{Recall: 0.9, Reps: 10}},
			{Dataset: "A", Strategy: "global", Approx: Approx{Recall: 0.85, Reps: 40, Below: true}},
		}),
		"theory": TableOf([]TheoryRow{{Dataset: "A", N: 5, PeakLiveMass: 9}}),
		"bayes":  TableOf([]BayesRow{{Dataset: "A", Threshold: 0.5, Bayes: Approx{Reps: 24, Below: true}}}),
	}
	for name, tab := range tables {
		if tab.Header[0] != "dataset" {
			t.Errorf("%s: first column %q, want dataset", name, tab.Header[0])
		}
		for i, cells := range tab.Rows {
			if len(cells) != len(tab.Header) {
				t.Errorf("%s: row %d has %d cells for %d columns %v", name, i, len(cells), len(tab.Header), tab.Header)
			}
		}
		csvRows := parseCSV(t, render(t, tab, true))
		textLines := strings.Split(strings.TrimSuffix(render(t, tab, false), "\n"), "\n")
		if len(csvRows) != 1+len(tab.Rows) || len(textLines) != len(csvRows) {
			t.Fatalf("%s: %d CSV records and %d text lines, want header + %d rows", name, len(csvRows), len(textLines), len(tab.Rows))
		}
		for i, line := range textLines {
			if f := strings.Fields(line); !slices.Equal(f, csvRows[i]) {
				t.Errorf("%s: text line %d is %q, CSV record %q", name, i, f, csvRows[i])
			}
		}
	}
}

func TestRunTheorySmall(t *testing.T) {
	ws := []Workload{mustWorkload(t, "TOKENS10K")}
	rows := RunTheory(ws, DefaultConfig(), nil)
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// A workload below the brute-force limit is finished at the root
	// (depth 0, one node per repetition); only the mass accounting is
	// unconditional.
	if r.Nodes == 0 || r.PeakLiveMass < int64(r.N) {
		t.Errorf("implausible theory row: %+v", r)
	}
	if out := render(t, TableOf(rows), false); !strings.Contains(out, "TOKENS10K") || !strings.Contains(out, "peak_per_n") {
		t.Errorf("theory output missing the dataset or peak_per_n:\n%s", out)
	}
}
