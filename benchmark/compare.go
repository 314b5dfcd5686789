package main

// `benchmark compare A.json B.json`: the regression gate. A is the base
// (the parent commit, or the first of two sets of runs of one commit), B
// the candidate. Each (workload, metric) gets one row and one verdict.

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so the spreads
// printed here are the ones the benchmark's driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// row is one line of the comparison.
type row struct {
	Workload, Metric, Unit string
	A, B                   []float64
	MedA, MedB             float64
	Ratio                  float64 // MedB / MedA; the base is MedA
	Spread                 float64 // the wider of the two sides' IQR/median
	Bound                  float64
	Verdict                string
}

// compareMetric judges one metric from the two sides' samples.
func compareMetric(spec metricSpec, workload string, a, b []float64) row {
	r := row{Workload: workload, Metric: spec.Name, Unit: spec.Unit, A: a, B: b, Bound: spec.Bound}
	if len(a) == 0 || len(b) == 0 {
		r.Verdict = verdictMissing
		return r
	}
	r.MedA, r.MedB = median(a), median(b)
	if spec.Absolute {
		// A share whose healthy value is 0: any rise over the bound is a
		// regression, and there is no spread to resolve.
		r.Ratio = r.MedB - r.MedA
		r.Verdict = verdictOK
		if r.MedB-r.MedA > spec.Bound {
			r.Verdict = verdictRegression
		}
		return r
	}
	for _, side := range [][]float64{a, b} {
		q1, q3 := quartiles(side)
		if m := median(side); m != 0 {
			r.Spread = max(r.Spread, (q3-q1)/m)
		}
	}
	r.Ratio = ratio(r.MedB, r.MedA)
	worse := r.Ratio - 1
	if spec.Better == higher {
		worse = 1 - r.Ratio
	}
	switch {
	case r.Spread > spec.Bound:
		// The runs of one side disagree by more than the bound: a change of
		// that size cannot be told from noise.
		r.Verdict = verdictUnresolved
	case worse > spec.Bound:
		r.Verdict = verdictRegression
	default:
		r.Verdict = verdictOK
	}
	return r
}

// compareFiles builds every row two result files support.
func compareFiles(a, b *resultFile) []row {
	collect := func(f *resultFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var rows []row
	for _, w := range workloadNames() {
		if va[w] == nil && vb[w] == nil {
			continue
		}
		for _, spec := range ledgerMetrics {
			if slices.Contains(spec.Workloads, w) {
				rows = append(rows, compareMetric(spec, w, va[w][spec.Name], vb[w][spec.Name]))
			}
		}
	}
	return rows
}

func printRows(w io.Writer, rows []row) (regressions, unresolved int) {
	fmt.Fprintf(w, "%-12s %-17s %-7s %12s %25s %4s %12s %25s %4s %9s %7s %7s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3]", "nA", "B median", "B [q1, q3]", "nB", "B/A", "spread", "bound", "verdict")
	for _, r := range rows {
		a1, a3 := quartiles(r.A)
		b1, b3 := quartiles(r.B)
		change := fmt.Sprintf("%9.4f", r.Ratio)
		bound := fmt.Sprintf("%6.1f%%", 100*r.Bound)
		if spec, _ := ledgerSpec(r.Metric); spec.Absolute {
			change = fmt.Sprintf("%+9.4f", r.Ratio) // a difference, not a ratio
			bound = fmt.Sprintf("%+7.2f", r.Bound)
		}
		fmt.Fprintf(w, "%-12s %-17s %-7s %12.6g %25s %4d %12.6g %25s %4d %s %6.1f%% %s  %s\n",
			r.Workload, r.Metric, r.Unit,
			r.MedA, fmt.Sprintf("[%.6g, %.6g]", a1, a3), len(r.A),
			r.MedB, fmt.Sprintf("[%.6g, %.6g]", b1, b3), len(r.B),
			change, 100*r.Spread, bound, r.Verdict)
		switch r.Verdict {
		case verdictRegression, verdictMissing:
			regressions++
		case verdictUnresolved:
			unresolved++
		}
	}
	return
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  commit %s  %s  nproc=%d\n", args[0], a.Env.Commit, a.Env.GoVersion, a.Env.NProc)
	fmt.Printf("B: %s  commit %s  %s  nproc=%d\n", args[1], b.Env.Commit, b.Env.GoVersion, b.Env.NProc)
	fmt.Println(strings.Repeat("-", 60))
	regressions, unresolved := printRows(os.Stdout, compareFiles(a, b))
	fmt.Printf("%d regression(s), %d unresolved (B/A is B's median over A's; spread is the wider IQR/median of the two sides)\n", regressions, unresolved)
	if regressions > 0 {
		return errRegression
	}
	return nil
}
