package bayeslsh

import (
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/prep"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/verify"
)

func testWorkload(seed uint64) [][]uint32 {
	ds := datagen.Uniform(600, 20, 4000, seed)
	datagen.PlantPairs(ds, 30, 0.6, seed+1)
	datagen.PlantPairs(ds, 30, 0.8, seed+2)
	return ds.Sets
}

func TestPrecisionIsPerfect(t *testing.T) {
	sets := testWorkload(1)
	got, _ := Join(sets, 0.5, &Options{Seed: 2})
	for _, p := range got {
		if j := intset.Jaccard(sets[p.A], sets[p.B]); j < 0.5 {
			t.Fatalf("false positive (%d,%d) J=%v", p.A, p.B, j)
		}
	}
}

func TestRecall(t *testing.T) {
	sets := testWorkload(3)
	for _, lambda := range []float64{0.5, 0.7} {
		truth := verify.BruteForceJoin(sets, lambda)
		if len(truth) == 0 {
			t.Fatalf("no ground truth at λ=%v", lambda)
		}
		got, _ := Join(sets, lambda, &Options{Seed: 4})
		if r := stats.Recall(got, truth); r < 0.8 {
			t.Errorf("λ=%v recall %v (%d/%d); paper reports ~90%% for BayesLSH",
				lambda, r, len(got), len(truth))
		}
	}
}

// TestPrunerBoundsMatchTheFloatTest proves the integer bounds exhaustively:
// at every width from 1 to 16 words, every λ from 0.5 to 0.9 in steps of
// 0.05 and every distance over every prefix, a distance is within bounds
// exactly when the Hoeffding test keeps the candidate: it is dropped after w
// words when agree/m + √(ln(W/γ)/(2m)) < (1+λ)/2, m = 64w bits, agree = m
// minus the distance.
func TestPrunerBoundsMatchTheFloatTest(t *testing.T) {
	for words := 1; words <= 16; words++ {
		for l := 50; l <= 90; l += 5 {
			lambda := float64(l) / 100
			b := bounds(words, lambda, gamma)
			need := (1 + lambda) / 2
			for w := 1; w <= words; w++ {
				m := float64(64 * w)
				slack := math.Sqrt(math.Log(float64(words)/gamma) / (2 * m))
				for d := 0; d <= 64*w; d++ {
					keep := !(float64(64*w-d)/m+slack < need)
					if got := d <= b[w-1]; got != keep {
						t.Fatalf("W=%d λ=%v: distance %d over %d words kept=%v, float test %v (bound %d)",
							words, lambda, d, w, got, keep, b[w-1])
					}
				}
			}
		}
	}
}

// survives reports whether a pair of sets with sketches a and b becomes a
// candidate of a two-set pipeline at λ that runs the sequential test.
func survives(a, b []uint64, lambda float64) bool {
	p := verify.NewPipeline([][]uint32{{1}, {1}}, lambda, 1)
	p.UseSequentialTest(len(a), append(slices.Clone(a), b...), bounds(len(a), lambda, gamma))
	s := p.NewScratches(1)
	s[0].BruteForcePairs([]uint32{0, 1})
	return p.Counters(s).Candidates == 1
}

func TestPrunerAcceptsIdentical(t *testing.T) {
	s := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if !survives(s, s, 0.9) {
		t.Fatal("identical sketches pruned")
	}
}

func TestPrunerRejectsOpposite(t *testing.T) {
	a := make([]uint64, 8)
	b := make([]uint64, 8)
	for i := range b {
		b[i] = ^uint64(0)
	}
	if survives(a, b, 0.5) {
		t.Fatal("fully disagreeing sketches survived")
	}
}

// TestPrunerRarelyDropsTruePairs: pairs at the threshold should survive
// pruning with probability ~ 1 - gamma.
func TestPrunerRarelyDropsTruePairs(t *testing.T) {
	const lambda, gamma = 0.6, 0.05
	maker := sketch.NewMaker(8, 7)
	drops, trials := 0, 0
	for trial := 0; trial < 300; trial++ {
		// Build a pair at similarity just above lambda by planting.
		ds := datagen.Uniform(1, 60, 100000, uint64(1000+trial))
		datagen.PlantPairs(ds, 1, lambda+0.1, uint64(trial))
		a, b := ds.Sets[len(ds.Sets)-2], ds.Sets[len(ds.Sets)-1]
		if intset.Jaccard(a, b) < lambda {
			continue
		}
		trials++
		if !survives(maker.Sketch(a), maker.Sketch(b), lambda) {
			drops++
		}
	}
	if trials < 100 {
		t.Fatalf("too few trials: %d", trials)
	}
	if rate := float64(drops) / float64(trials); rate > gamma+0.05 {
		t.Errorf("pruner drops %v of true pairs (budget %v)", rate, gamma)
	}
}

func TestTinyInputs(t *testing.T) {
	if got, _ := Join(nil, 0.5, nil); got != nil {
		t.Error("Join(nil) returned pairs")
	}
}

func TestCountersSane(t *testing.T) {
	sets := testWorkload(5)
	got, c := Join(sets, 0.5, &Options{Seed: 6})
	if c.Results != int64(len(got)) {
		t.Errorf("Results %d != %d", c.Results, len(got))
	}
	if c.Candidates > c.PreCandidates {
		t.Errorf("candidates %d > pre-candidates %d", c.Candidates, c.PreCandidates)
	}
}

// TestGoldenJoin pins the join to what it returned at the commit before it
// looked pairs up in the result set only after the size filter and the
// pruner (it used to ask first, a lock per pre-candidate): SHA-256 of the
// sorted pair set at every worker count, and at one worker the three
// counters. Candidates are the pairs that pass both stages and are not yet
// results, in whichever order that is found out — on both shapes of the
// perf ledger, pruner on and off.
func TestGoldenJoin(t *testing.T) {
	flat := prep.Build(datagen.LedgerShape(false, 3000, 1), 128, 8, 42)
	skew := prep.Build(datagen.LedgerShape(true, 3000, 2), 128, 8, 42)
	for _, tc := range []struct {
		name   string
		ix     *prep.Index
		lambda float64
		words  int // SketchWords: 0 takes the index's sketches, -1 none
		digest string
		c      verify.Counters
	}{
		{"flat/l50/pruner", flat, 0.5, 0, "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", verify.Counters{PreCandidates: 644876, Candidates: 364, Results: 302}},
		{"flat/l80/pruner", flat, 0.8, 0, "bb5a13436d99c86a036e1a3b786e1a30703c0325bbe2000580751bdc390a23bc", verify.Counters{PreCandidates: 435344, Candidates: 223, Results: 223}},
		{"flat/l50/none", flat, 0.5, -1, "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", verify.Counters{PreCandidates: 644876, Candidates: 575803, Results: 302}},
		{"flat/l80/none", flat, 0.8, -1, "bb5a13436d99c86a036e1a3b786e1a30703c0325bbe2000580751bdc390a23bc", verify.Counters{PreCandidates: 435344, Candidates: 175764, Results: 223}},
		{"skew/l50/pruner", skew, 0.5, 0, "171ca5089196b385e1b0de55bb61ee6d1db98b632386157f3cc6ee4299e67e86", verify.Counters{PreCandidates: 613084, Candidates: 15857, Results: 1493}},
		{"skew/l80/pruner", skew, 0.8, 0, "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", verify.Counters{PreCandidates: 285608, Candidates: 450, Results: 450}},
		{"skew/l50/none", skew, 0.5, -1, "171ca5089196b385e1b0de55bb61ee6d1db98b632386157f3cc6ee4299e67e86", verify.Counters{PreCandidates: 613084, Candidates: 313914, Results: 1493}},
		{"skew/l80/none", skew, 0.8, -1, "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", verify.Counters{PreCandidates: 285608, Candidates: 59366, Results: 450}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 4} {
				pairs, c := JoinIndexed(tc.ix, tc.lambda, &Options{Seed: 42, SketchWords: tc.words, Workers: workers})
				if d := stats.PairDigest(pairs); d != tc.digest {
					t.Errorf("workers=%d: pair set %s, want %s", workers, d, tc.digest)
				}
				// Two workers can verify one pair twice: Candidates may
				// drift up by a handful, the rest may not.
				if c.PreCandidates != tc.c.PreCandidates || c.Results != tc.c.Results || c.Candidates < tc.c.Candidates || (workers <= 1 && c != tc.c) {
					t.Errorf("workers=%d: counters %+v, want %+v", workers, c, tc.c)
				}
			}
		})
	}
}
