package core_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// TestDefaultsKeepTableIIIRecall recomputes the rule withDefaults states: a
// pair in the band [λ, λ+0.02) meets in one repetition with probability
// p = 0.46, so r repetitions at sketch budget δ report it with probability
// about (1 − (1−p)^r)·(1 − δ). The defaults must reach Table III's modelled
// recall at λ, and one repetition fewer at the same δ must not: they are
// the fewest repetitions at their δ that do. The harness's options
// (bench.TableIII) must stay the paper's.
func TestDefaultsKeepTableIIIRecall(t *testing.T) {
	const p = 0.46
	recall := func(r int, delta float64) float64 {
		return (1 - math.Pow(1-p, float64(r))) * (1 - delta)
	}
	paper, def := bench.TableIII(bench.Config{}), core.Defaults()
	if paper.Repetitions != 10 || paper.Delta != 0.05 {
		t.Fatalf("bench.TableIII: %d repetitions at δ = %v, want Table III's 10 at 0.05", paper.Repetitions, paper.Delta)
	}
	if def.Repetitions != 6 || def.Delta != 0.01 {
		t.Errorf("defaults: %d repetitions at δ = %v, want 6 at 0.01", def.Repetitions, def.Delta)
	}
	floor := recall(paper.Repetitions, paper.Delta)
	if got := recall(def.Repetitions, def.Delta); got < floor {
		t.Errorf("defaults (%d, %v): modelled recall at λ %.4f, below Table III's %.4f", def.Repetitions, def.Delta, got, floor)
	}
	if got := recall(def.Repetitions-1, def.Delta); got >= floor {
		t.Errorf("(%d, %v): modelled recall at λ %.4f reaches Table III's %.4f with one repetition fewer than the default",
			def.Repetitions-1, def.Delta, got, floor)
	}
	t.Logf("modelled recall at λ: Table III %.4f, defaults %.4f, one repetition fewer %.4f",
		floor, recall(def.Repetitions, def.Delta), recall(def.Repetitions-1, def.Delta))
}
