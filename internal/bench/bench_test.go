package bench

import (
	"io"
	"strings"
	"testing"
)

// tinyScale keeps harness tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{ProfileSets: 600, UniformSets: 600, TokensCap: 60, Seed: 7}
}

func TestAllWorkloadsGenerate(t *testing.T) {
	ws := AllWorkloads(tinyScale())
	if len(ws) != 14 {
		t.Fatalf("got %d workloads, want 14 (10 profiles + UNIFORM005 + 3 TOKENS)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Fatalf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if len(w.Sets) < 50 {
			t.Errorf("%s: only %d sets", w.Name, len(w.Sets))
		}
	}
	for _, name := range []string{"AOL", "NETFLIX", "UNIFORM005", "TOKENS10K", "TOKENS20K"} {
		if !seen[name] {
			t.Errorf("missing workload %s", name)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("TOKENS10K", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "TOKENS10K" {
		t.Fatalf("got %s", w.Name)
	}
	if _, err := WorkloadByName("NOPE", tinyScale()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTokensProgression(t *testing.T) {
	// TOKENS20K must have roughly twice the token usage of TOKENS10K.
	ws := SyntheticWorkloads(tinyScale())
	var t10, t20 Workload
	for _, w := range ws {
		switch w.Name {
		case "TOKENS10K":
			t10 = w
		case "TOKENS20K":
			t20 = w
		}
	}
	s10, s20 := t10.Summary(), t20.Summary()
	if s20.SetsPerToken < 1.5*s10.SetsPerToken {
		t.Errorf("TOKENS progression broken: sets/token %v vs %v",
			s10.SetsPerToken, s20.SetsPerToken)
	}
}

func TestRunTable1(t *testing.T) {
	rows := RunTable1(AllWorkloads(tinyScale()))
	if len(rows) != 14 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !strings.Contains(render(t, TableOf(rows), false), "NETFLIX") {
		t.Error("Table 1 output missing NETFLIX row")
	}
}

func TestRunTable2Small(t *testing.T) {
	ws := []Workload{mustWorkload(t, "UNIFORM005"), mustWorkload(t, "TOKENS10K")}
	cfg := DefaultConfig()
	cells := RunTable2(ws, []float64{0.5, 0.7}, cfg, io.Discard)
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if c.CPRecall < cfg.TargetRecall-1e-9 && c.Results > 0 {
			t.Errorf("%s λ=%v: CP recall %v below target", c.Dataset, c.Threshold, c.CPRecall)
		}
		if c.Results == 0 {
			t.Errorf("%s λ=%v: empty exact result; workload has no join mass", c.Dataset, c.Threshold)
		}
	}
	out := render(t, TableOf(cells), false)
	for _, col := range []string{"TOKENS10K", "cp_recall", "mh_recall", "speedup"} {
		if !strings.Contains(out, col) {
			t.Errorf("Table 2 output missing %s:\n%s", col, out)
		}
	}
}

func TestRunFig3(t *testing.T) {
	ws := []Workload{mustWorkload(t, "UNIFORM005")}
	cfg := DefaultConfig()
	cfg.TargetRecall = 0.8
	for _, param := range []string{"limit", "epsilon", "words"} {
		points, err := RunFig3(ws, param, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) == 0 {
			t.Fatalf("no points for %s", param)
		}
		hasIndex := false
		for _, p := range points {
			if p.Relative == 1.0 {
				hasIndex = true
			}
		}
		if !hasIndex {
			t.Errorf("%s sweep has no index point with relative time 1.0", param)
		}
	}
	if _, err := RunFig3(ws, "nope", cfg, nil); err == nil {
		t.Error("unknown parameter accepted")
	}
}

func TestRunTable4(t *testing.T) {
	ws := []Workload{mustWorkload(t, "TOKENS10K")}
	rows := RunTable4(ws, DefaultConfig(), io.Discard)
	if len(rows) != 4 { // 2 thresholds x 2 algorithms
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Candidates > r.PreCandidates {
			t.Errorf("%+v: candidates exceed pre-candidates", r)
		}
		if r.Results > r.Candidates {
			t.Errorf("%+v: results exceed candidates", r)
		}
	}
	if !strings.Contains(render(t, TableOf(rows), false), "CP") {
		t.Error("Table 4 output missing CP rows")
	}
}

func TestRunAblation(t *testing.T) {
	ws := []Workload{mustWorkload(t, "UNIFORM005")}
	rows := RunAblation(ws, DefaultConfig(), io.Discard)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Recall < 0.5 {
			t.Errorf("%s/%s recall %v suspiciously low", r.Dataset, r.Strategy, r.Recall)
		}
	}
	if !strings.Contains(render(t, TableOf(rows), false), "adaptive") {
		t.Error("ablation output missing adaptive row")
	}
}

func TestRunBayes(t *testing.T) {
	ws := []Workload{mustWorkload(t, "UNIFORM005")}
	rows := RunBayes(ws, DefaultConfig(), io.Discard)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !strings.Contains(render(t, TableOf(rows), false), "UNIFORM005") {
		t.Error("bayes output missing dataset")
	}
}

// TestTokensShapeClaim checks the paper's central robustness claim at tiny
// scale: on the TOKENS datasets (no rare tokens), CPSJoin examines far
// fewer candidates than AllPairs.
func TestTokensShapeClaim(t *testing.T) {
	ws := []Workload{mustWorkload(t, "TOKENS10K")}
	rows := RunTable4(ws, DefaultConfig(), io.Discard)
	var all, cp Table4Row
	for _, r := range rows {
		if r.Threshold == 0.5 {
			switch r.Algorithm {
			case "ALL":
				all = r
			case "CP":
				cp = r
			}
		}
	}
	if cp.Candidates >= all.Candidates {
		t.Errorf("on TOKENS, CP candidates (%d) should be far below ALL (%d)",
			cp.Candidates, all.Candidates)
	}
}

func mustWorkload(t *testing.T, name string) Workload {
	t.Helper()
	w, err := WorkloadByName(name, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	return w
}
