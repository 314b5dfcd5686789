package main

import (
	"bytes"
	"strings"
	"testing"
)

func syntheticFile(values map[string]map[string][]float64) *resultFile {
	f := &resultFile{}
	for w, metrics := range values {
		n := 0
		for _, v := range metrics {
			n = max(n, len(v))
		}
		for i := 0; i < n; i++ {
			r := newResult(w, 1, 1, false)
			for name, v := range metrics {
				r.Metrics[name] = v[i]
			}
			f.Runs = append(f.Runs, r)
		}
	}
	return f
}

func verdicts(rows []row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	scale := func(v []float64, k float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * k
		}
		return out
	}
	zeros := []float64{0, 0, 0, 0, 0}
	ones := []float64{1, 1, 1, 1, 1}
	a := syntheticFile(map[string]map[string][]float64{
		wJoinFlat: {
			"setup_s": steady, "join_sweep_s": steady, "join_recall": {0.95, 0.95, 0.951, 0.95, 0.949},
			"peak_rss_mb": steady, "failed_ops_share": zeros,
		},
		wServeRead: {
			"setup_s": steady, "peak_rss_mb": steady, "query_p50_ms": steady,
			"query_p99_ms": {1, 2, 1.5, 0.7, 2.5}, // its own runs disagree by more than 25 %
			"query_recall": ones, "closed_qps": scale(steady, 400), "batch_qps": scale(steady, 700),
			"failed_ops_share": zeros,
		},
	})
	b := syntheticFile(map[string]map[string][]float64{
		wJoinFlat: {
			"setup_s":          scale(steady, 1.2),  // within setup's 25 %
			"join_sweep_s":     scale(steady, 1.15), // over the 10 % bound
			"join_recall":      {0.95, 0.95, 0.951, 0.95, 0.949},
			"peak_rss_mb":      scale(steady, 0.5), // an improvement
			"failed_ops_share": {0, 0, 0.01, 0.01, 0.01},
		},
		wServeRead: {
			"setup_s": steady, "peak_rss_mb": steady, "query_p50_ms": scale(steady, 1.05),
			"query_p99_ms": {1, 2, 1.5, 0.7, 2.5},
			"query_recall": ones,
			"closed_qps":   scale(steady, 280), // higher is better: −30 %
			// batch_qps missing altogether
			"failed_ops_share": zeros,
		},
	})
	got := verdicts(compareFiles(a, b))
	want := map[string]string{
		"join_flat/setup_s":           verdictOK,
		"join_flat/join_sweep_s":      verdictRegression,
		"join_flat/join_recall":       verdictOK,
		"join_flat/peak_rss_mb":       verdictOK,
		"join_flat/failed_ops_share":  verdictRegression,
		"serve_read/setup_s":          verdictOK,
		"serve_read/query_p50_ms":     verdictOK,
		"serve_read/query_p99_ms":     verdictUnresolved,
		"serve_read/closed_qps":       verdictRegression,
		"serve_read/batch_qps":        verdictMissing,
		"serve_read/failed_ops_share": verdictOK,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	if _, ok := got["join_flat/query_p50_ms"]; ok {
		t.Errorf("a serve metric was compared on a join workload")
	}

	var buf bytes.Buffer
	regressions, unresolved := printRows(&buf, compareFiles(a, b))
	if regressions != 4 || unresolved != 1 {
		t.Errorf("counted %d regressions and %d unresolved, want 4 (one of them the missing metric) and 1\n%s", regressions, unresolved, buf.String())
	}
	if !strings.Contains(buf.String(), "join_sweep_s") || !strings.Contains(buf.String(), "1.1500") {
		t.Errorf("table lacks the ratio with its base:\n%s", buf.String())
	}
	if r, u := printRows(&buf, compareFiles(a, a)); r != 0 || u != 1 {
		t.Errorf("a file against itself: %d regressions, %d unresolved", r, u)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
