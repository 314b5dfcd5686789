package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/stats"
	"repro/internal/verify"
)

// testWorkload builds a dataset with planted similar pairs across the
// threshold range plus uniform background noise.
func testWorkload(n int, seed uint64) [][]uint32 {
	ds := datagen.Uniform(n, 20, 5000, seed)
	datagen.PlantPairs(ds, n/20, 0.55, seed+1)
	datagen.PlantPairs(ds, n/20, 0.75, seed+2)
	datagen.PlantPairs(ds, n/20, 0.95, seed+3)
	return ds.Sets
}

// denseWorkload is TOKENS-like: small universe, every token frequent.
func denseWorkload(seed uint64) [][]uint32 {
	cfg := datagen.DefaultTokensConfig(150, seed)
	cfg.PairsPerJ = 10
	ds, _ := datagen.Tokens(cfg)
	return ds.Sets
}

func TestPrecisionIsPerfect(t *testing.T) {
	sets := testWorkload(600, 1)
	got, _ := Join(sets, 0.5, &Options{Seed: 7})
	for _, p := range got {
		if j := intset.Jaccard(sets[p.A], sets[p.B]); j < 0.5 {
			t.Fatalf("false positive (%d,%d) with J=%v", p.A, p.B, j)
		}
	}
}

func TestRecallAcrossThresholds(t *testing.T) {
	sets := testWorkload(600, 2)
	for _, lambda := range []float64{0.5, 0.7, 0.9} {
		truth := verify.BruteForceJoin(sets, lambda)
		if len(truth) == 0 {
			t.Fatalf("no ground truth at λ=%v", lambda)
		}
		got, _ := Join(sets, lambda, &Options{Seed: 13})
		if r := stats.Recall(got, truth); r < 0.9 {
			t.Errorf("λ=%v: recall %v < 0.9 (%d/%d)", lambda, r, len(got), len(truth))
		}
	}
}

func TestRecallOnDenseData(t *testing.T) {
	// The TOKENS regime: no rare tokens at all. CPSJoin's home turf.
	sets := denseWorkload(3)
	truth := verify.BruteForceJoin(sets, 0.5)
	if len(truth) == 0 {
		t.Fatal("dense workload has no results")
	}
	got, _ := Join(sets, 0.5, &Options{Seed: 17})
	if r := stats.Recall(got, truth); r < 0.9 {
		t.Errorf("dense recall %v < 0.9 (%d/%d)", r, len(got), len(truth))
	}
	for _, p := range got {
		if intset.Jaccard(sets[p.A], sets[p.B]) < 0.5 {
			t.Fatal("false positive on dense data")
		}
	}
}

func TestNoDuplicatePairs(t *testing.T) {
	sets := testWorkload(400, 4)
	got, _ := Join(sets, 0.5, &Options{Seed: 5})
	seen := make(map[uint64]bool)
	for _, p := range got {
		if p.A >= p.B {
			t.Fatalf("unnormalized pair %v", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p.Key()] = true
	}
}

func TestMoreRepetitionsMoreRecall(t *testing.T) {
	sets := testWorkload(800, 6)
	truth := verify.BruteForceJoin(sets, 0.6)
	if len(truth) < 10 {
		t.Skip("too few ground-truth pairs")
	}
	r1, _ := Join(sets, 0.6, &Options{Seed: 1, Repetitions: 1})
	r10, _ := Join(sets, 0.6, &Options{Seed: 1, Repetitions: 10})
	rec1, rec10 := stats.Recall(r1, truth), stats.Recall(r10, truth)
	if rec10 < rec1 {
		t.Errorf("recall decreased with repetitions: %v -> %v", rec1, rec10)
	}
	if rec10 < 0.9 {
		t.Errorf("10-repetition recall %v < 0.9", rec10)
	}
}

func TestNoSketchBruteForceAgrees(t *testing.T) {
	// The literal Algorithm 2, the rule that runs without sketches, and the
	// sampled heuristic must both deliver the recall contract; results are
	// random but both subsets of truth.
	sets := testWorkload(300, 7)
	truth := verify.BruteForceJoin(sets, 0.6)
	fast, _ := Join(sets, 0.6, &Options{Seed: 3})
	literal, _ := Join(sets, 0.6, &Options{Seed: 3, SketchWords: -1})
	if r := stats.Recall(literal, truth); r < 0.9 {
		t.Errorf("literal recall %v", r)
	}
	if r := stats.Recall(fast, truth); r < 0.9 {
		t.Errorf("fast recall %v", r)
	}
	for _, p := range literal {
		if intset.Jaccard(sets[p.A], sets[p.B]) < 0.6 {
			t.Fatal("literal produced a false positive")
		}
	}
}

func TestStoppingStrategies(t *testing.T) {
	sets := testWorkload(500, 8)
	truth := verify.BruteForceJoin(sets, 0.6)
	for name, opt := range map[string]*Options{
		"global":     {Seed: 4, Stopping: StopGlobal},
		"individual": {Seed: 4, Stopping: StopIndividual},
	} {
		got, _ := Join(sets, 0.6, opt)
		for _, p := range got {
			if intset.Jaccard(sets[p.A], sets[p.B]) < 0.6 {
				t.Fatalf("%s: false positive", name)
			}
		}
		if r := stats.Recall(got, truth); r < 0.8 {
			t.Errorf("%s: recall %v < 0.8", name, r)
		}
	}
}

func TestSketchDisabled(t *testing.T) {
	sets := testWorkload(300, 9)
	truth := verify.BruteForceJoin(sets, 0.5)
	got, _ := Join(sets, 0.5, &Options{Seed: 5, SketchWords: -1})
	if r := stats.Recall(got, truth); r < 0.9 {
		t.Errorf("recall without sketch filter %v", r)
	}
}

func TestEpsilonZeroExpressible(t *testing.T) {
	sets := testWorkload(300, 10)
	got, _ := Join(sets, 0.5, &Options{Seed: 6, Epsilon: 0, EpsilonSet: true})
	truth := verify.BruteForceJoin(sets, 0.5)
	if r := stats.Recall(got, truth); r < 0.9 {
		t.Errorf("ε=0 recall %v", r)
	}
}

func TestSmallLimit(t *testing.T) {
	sets := testWorkload(400, 11)
	truth := verify.BruteForceJoin(sets, 0.5)
	got, _ := Join(sets, 0.5, &Options{Seed: 7, Limit: 10})
	if r := stats.Recall(got, truth); r < 0.85 {
		t.Errorf("limit=10 recall %v", r)
	}
}

func TestTinyInputs(t *testing.T) {
	if got, _ := Join(nil, 0.5, nil); got != nil {
		t.Error("Join(nil) returned pairs")
	}
	if got, _ := Join([][]uint32{{1, 2}}, 0.5, nil); got != nil {
		t.Error("Join(single) returned pairs")
	}
	got, _ := Join([][]uint32{{1, 2, 3}, {1, 2, 3}}, 0.5, &Options{Seed: 1})
	if len(got) != 1 {
		t.Errorf("two identical sets: %v", got)
	}
}

func TestInvalidLambdaPanics(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lambda=%v did not panic", bad)
				}
			}()
			Join([][]uint32{{1, 2}, {3, 4}}, bad, nil)
		}()
	}
}

func TestJoinRS(t *testing.T) {
	r := [][]uint32{{1, 2, 3, 4}, {10, 11, 12, 13}, {20, 21}}
	s := [][]uint32{{1, 2, 3, 5}, {30, 31, 32}, {10, 11, 12, 13}}
	// True cross pairs at λ=0.5: (r0, s0) J=3/5=0.6, (r1, s2) J=1.
	got, _ := JoinRS(r, s, 0.5, &Options{Seed: 8, Repetitions: 20})
	want := map[verify.Pair]bool{
		{A: 0, B: 0}: true,
		{A: 1, B: 2}: true,
	}
	if len(got) > len(want) {
		t.Fatalf("too many pairs: %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	if len(got) < 2 {
		t.Errorf("missed cross pairs: got %v", got)
	}
}

func TestJoinRSNoWithinSidePairs(t *testing.T) {
	// Two identical sets on the same side must not be reported.
	r := [][]uint32{{1, 2, 3}, {1, 2, 3}}
	s := [][]uint32{{7, 8, 9}, {7, 8, 9}}
	got, _ := JoinRS(r, s, 0.5, &Options{Seed: 9, Repetitions: 20})
	if len(got) != 0 {
		t.Fatalf("reported within-side pairs: %v", got)
	}
}

func TestCountersSane(t *testing.T) {
	sets := testWorkload(400, 12)
	got, c := Join(sets, 0.5, &Options{Seed: 10})
	if c.Results != int64(len(got)) {
		t.Errorf("Results %d != %d", c.Results, len(got))
	}
	if c.Candidates > c.PreCandidates {
		t.Errorf("candidates %d > pre-candidates %d", c.Candidates, c.PreCandidates)
	}
	if c.PreCandidates == 0 {
		t.Error("no pre-candidates counted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	sets := testWorkload(300, 13)
	a, _ := Join(sets, 0.6, &Options{Seed: 42})
	b, _ := Join(sets, 0.6, &Options{Seed: 42})
	if !stats.EqualPairSets(a, b) {
		t.Error("same seed produced different results")
	}
}

func TestManyDuplicateSets(t *testing.T) {
	// Stress the recursion's duplicate handling: many identical sets form
	// nodes that can never be separated by splitting; the adaptive rule
	// must brute force them rather than recurse forever.
	sets := make([][]uint32, 0, 300)
	for i := 0; i < 300; i++ {
		sets = append(sets, []uint32{1, 2, 3, 4, 5})
	}
	got, _ := Join(sets, 0.9, &Options{Seed: 14, Repetitions: 2, Limit: 50})
	want := 300 * 299 / 2
	if len(got) != want {
		t.Fatalf("duplicate-set join found %d pairs, want %d", len(got), want)
	}
}
