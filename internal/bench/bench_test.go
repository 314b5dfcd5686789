package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lshjoin"
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
	for i, c := range cells {
		if c.CP.Recall < cfg.TargetRecall-1e-9 && c.Results > 0 {
			t.Errorf("%s λ=%v: CP recall %v below target", c.Dataset, c.Threshold, c.CP.Recall)
		}
		what := fmt.Sprintf("%s λ=%v", c.Dataset, c.Threshold)
		checkApprox(t, what+" cp", c.CP, cfg.TargetRecall, 4*10)
		// MinHash LSH picks its k, and so its default count min(L, maxL),
		// from the data: the count it runs without a target is the one.
		ix := core.Preprocess(ws[i/2].Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		_, d := lshjoin.JoinIndexed(ix, c.Threshold, &lshjoin.Options{Seed: cfg.Seed, Workers: cfg.Workers, TargetRecall: cfg.TargetRecall})
		checkApprox(t, what+" mh", c.MH, cfg.TargetRecall, 4*int(d.Repetitions))
		if c.Results == 0 {
			t.Errorf("%s λ=%v: empty exact result; workload has no join mass", c.Dataset, c.Threshold)
		}
	}
	out := render(t, TableOf(cells), false)
	for _, col := range []string{"TOKENS10K", "cp_recall", "mh_recall", "cp_reps", "mh_reps", "speedup"} {
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
			checkApprox(t, fmt.Sprintf("%s=%v", param, p.Value), p.Approx, cfg.TargetRecall, 4*10)
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
		checkApprox(t, r.Strategy, r.Approx, DefaultConfig().TargetRecall, 4*10)
	}
	if !strings.Contains(render(t, TableOf(rows), false), "adaptive") {
		t.Error("ablation output missing adaptive row")
	}
}

// TestRunBayes: both methods run to the same target recall, so every row
// reports each one's recall at or above the target, or marks its
// repetitions as stopped at the cap below it, and the table prints the
// recall and repetition columns of both. On UNIFORM005 both reach the
// target; at one no join can reach, every cell runs to its cap and is
// marked.
func TestRunBayes(t *testing.T) {
	ws := []Workload{mustWorkload(t, "UNIFORM005")}
	cfg := DefaultConfig()
	rows := RunBayes(ws, cfg, io.Discard)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		checkBayesRow(t, r, cfg.TargetRecall)
		if r.Bayes.Recall < cfg.TargetRecall || r.CP.Recall < cfg.TargetRecall {
			t.Errorf("λ=%v: bayes_recall %v, cp_recall %v, target %v", r.Threshold, r.Bayes.Recall, r.CP.Recall, cfg.TargetRecall)
		}
	}
	out := render(t, TableOf(rows), false)
	for _, s := range []string{"UNIFORM005", "bayes_recall", "cp_recall", "bayes_reps", "cp_reps"} {
		if !strings.Contains(out, s) {
			t.Errorf("bayes output missing %q", s)
		}
	}

	cfg.TargetRecall = 1.01
	for _, r := range RunBayes(ws, cfg, io.Discard) {
		checkBayesRow(t, r, cfg.TargetRecall)
		if !strings.HasSuffix(r.Bayes.reps(), "*") || !strings.HasSuffix(r.CP.reps(), "*") {
			t.Errorf("λ=%v: unreachable target, cells %q and %q unmarked", r.Threshold, r.Bayes.reps(), r.CP.reps())
		}
	}
}

// checkBayesRow checks both of a bayes row's measurements against their
// caps: 4× BayesLSH-lite's L and 4× CPSJoin's 10 repetitions.
func checkBayesRow(t *testing.T, r BayesRow, target float64) {
	t.Helper()
	checkApprox(t, fmt.Sprintf("λ=%v bayes", r.Threshold), r.Bayes, target, 4*lshjoin.Repetitions(r.Threshold, 1, 0.95))
	checkApprox(t, fmt.Sprintf("λ=%v cp", r.Threshold), r.CP, target, 4*10)
}

// checkApprox fails the test unless a ran between one repetition and its
// cap and its cell is marked only if the join stopped at the cap below the
// target, which is what the marker tells the reader.
func checkApprox(t *testing.T, what string, a Approx, target float64, cap int) {
	t.Helper()
	if a.Reps < 1 || a.Reps > int64(cap) || a.Recall > 1 {
		t.Errorf("%s: %d repetitions (cap %d), recall %v", what, a.Reps, cap, a.Recall)
	}
	if strings.HasSuffix(a.reps(), "*") && (a.Reps != int64(cap) || a.Recall >= target) {
		t.Errorf("%s: cell %q marked at recall %v, target %v, cap %d", what, a.reps(), a.Recall, target, cap)
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
