package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
)

// TestDepthBoundLemma4: the explored depth of the Chosen Path recursion
// should grow like O(log n / ε), not linearly in n.
func TestDepthBoundLemma4(t *testing.T) {
	depths := map[int]int{}
	for _, n := range []int{500, 2000, 8000} {
		ds := datagen.Uniform(n, 20, 10*n, uint64(n))
		var m Metrics
		Join(ds.Sets, 0.5, &Options{Seed: 1, Repetitions: 3, Metrics: &m})
		depths[n] = m.MaxDepth
		// Generous absolute sanity bound: 6*ln(n)/eps with eps=0.1.
		bound := int(6*math.Log(float64(n))/0.1) + 10
		if m.MaxDepth > bound {
			t.Errorf("n=%d: max depth %d exceeds O(log n/ε) bound %d", n, m.MaxDepth, bound)
		}
	}
	// Depth at 16x the points should grow by far less than 16x.
	if depths[8000] > 8*depths[500]+8 {
		t.Errorf("depth scaling looks superlogarithmic: %v", depths)
	}
}

// TestWorkingSpaceRemark9: peak live node mass on the recursion stack
// should stay within a small multiple of n (the paper conjectures O(n)
// expected working space; Lemma 8 proves O(n log n / ε) w.h.p.).
// On four workers the peak is the largest single worker's stack, which holds
// a root of n points whenever it runs a repetition.
func TestWorkingSpaceRemark9(t *testing.T) {
	for _, n := range []int{1000, 4000} {
		ds := datagen.Uniform(n, 20, 10*n, uint64(n)+77)
		for _, workers := range []int{1, 4} {
			var m Metrics
			// Ten repetitions: the accounting must not drift across runs.
			Join(ds.Sets, 0.5, &Options{Seed: 2, Repetitions: 10, Workers: workers, Metrics: &m})
			if m.PeakLiveMass > int64(4*n) {
				t.Errorf("n=%d workers=%d: peak live mass %d exceeds 4n", n, workers, m.PeakLiveMass)
			}
			if m.PeakLiveMass < int64(n) {
				t.Errorf("n=%d workers=%d: peak live mass %d below n — accounting broken", n, workers, m.PeakLiveMass)
			}
		}
	}
}

// TestMetricsKeepTheWorkers: asking for recursion statistics must not
// change how the join runs. One repetition is a single root, which reaches
// the second of two workers only by a steal; on one CPU that worker runs
// only when the scheduler preempts the first, and a join can end before it
// does, so up to ten joins get the chance (the index is built beforehand,
// so no steal comes from preprocessing). Every spawned subtree then starts
// a stack of its own: the peak stack mass is below the one-worker
// depth-first peak, while every tree count is the same.
func TestMetricsKeepTheWorkers(t *testing.T) {
	ix := Preprocess(datagen.LedgerShape(false, 3000, 1), &Options{Seed: 42})
	var one, two Metrics
	JoinIndexed(ix, 0.5, &Options{Seed: 42, Repetitions: 1, Metrics: &one})
	before := exec.ReadStats().Steals
	for try := 0; try < 10 && exec.ReadStats().Steals == before; try++ {
		two = Metrics{}
		JoinIndexed(ix, 0.5, &Options{Seed: 42, Repetitions: 1, Workers: 2, Metrics: &two})
	}
	if exec.ReadStats().Steals == before {
		t.Error("two-worker joins with Metrics stole no task: they ran on one worker")
	}
	if two.PeakLiveMass >= one.PeakLiveMass {
		t.Errorf("peak live mass %d on two workers, %d on one: the subtrees shared a stack", two.PeakLiveMass, one.PeakLiveMass)
	}
	two.PeakLiveMass = one.PeakLiveMass
	if two != one {
		t.Errorf("two workers: %+v, one worker: %+v", two, one)
	}
}

func TestMetricsPopulated(t *testing.T) {
	sets := testWorkload(400, 50)
	var m Metrics
	Join(sets, 0.5, &Options{Seed: 3, Metrics: &m})
	if m.Nodes == 0 || m.NodeMass == 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.BruteForcedNodes == 0 {
		t.Errorf("no brute-forced nodes recorded: %+v", m)
	}
	if m.NodeMass < m.PeakLiveMass {
		t.Errorf("node mass %d < peak live mass %d", m.NodeMass, m.PeakLiveMass)
	}
}

// TestAdaptiveRemovesDensePoints: on a dataset with a dense similar
// cluster, the adaptive rule must fire (BruteForcedPoints > 0), removing
// cluster members instead of recursing on them forever.
func TestAdaptiveRemovesDensePoints(t *testing.T) {
	ds := datagen.Uniform(400, 20, 4000, 51)
	// A cluster of 300 near-identical sets, well above limit=250.
	clusterBase := ds.Sets[0]
	for i := 0; i < 300; i++ {
		ds.Sets = append(ds.Sets, clusterBase)
	}
	var m Metrics
	Join(ds.Sets, 0.5, &Options{Seed: 4, Repetitions: 2, Metrics: &m})
	if m.BruteForcedPoints == 0 {
		t.Errorf("adaptive rule never fired on a dense cluster: %+v", m)
	}
}
