package allpairs

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/stats"
	"repro/internal/verify"
)

func TestPPExactAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		seed              int64
		n, maxLen, domain int
	}{
		{10, 150, 12, 30},
		{11, 200, 20, 200},
		{12, 100, 40, 60},
		{13, 300, 8, 2000},
	} {
		sets := randomSets(tc.seed, tc.n, tc.maxLen, tc.domain)
		for _, lambda := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			want := verify.BruteForceJoin(sets, lambda)
			got, counters := PPJoin(sets, lambda)
			if !stats.EqualPairSets(got, want) {
				t.Fatalf("seed=%d λ=%v: PPJoin %d pairs, brute force %d; missing=%v",
					tc.seed, lambda, len(got), len(want), stats.Missing(got, want))
			}
			if counters.Results != int64(len(got)) {
				t.Errorf("Results counter %d != %d pairs", counters.Results, len(got))
			}
		}
	}
}

// TestPositionalFilterPrunes: on dense data PPJoin must verify no more
// candidates than AllPairs (the positional filter only removes candidates).
func TestPositionalFilterPrunes(t *testing.T) {
	ds := datagen.Uniform(600, 12, 80, 19) // dense: long inverted lists
	_, cAll := Join(ds.Sets, 0.6)
	_, cPP := PPJoin(ds.Sets, 0.6)
	if cPP.Candidates > cAll.Candidates {
		t.Errorf("PPJoin verified %d candidates, AllPairs %d; positional filter ineffective",
			cPP.Candidates, cAll.Candidates)
	}
	if cPP.Results != cAll.Results {
		t.Errorf("result counts differ: PPJoin %d, AllPairs %d", cPP.Results, cAll.Results)
	}
}

func TestPrunedStateDoesNotLeak(t *testing.T) {
	// Regression-style test: construct a workload with repeated probe
	// patterns so that a leaked `pruned` flag would suppress later results.
	sets := [][]uint32{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{1, 20, 21, 22, 23, 24, 25, 26, 27, 28}, // shares only token 1: pruned early
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 11},         // J = 9/11 with set 0
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},         // duplicate of set 0
	}
	want := verify.BruteForceJoin(sets, 0.5)
	got, _ := PPJoin(sets, 0.5)
	if !stats.EqualPairSets(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestPPTinyInputs(t *testing.T) {
	if got, _ := PPJoin(nil, 0.5); got != nil {
		t.Errorf("PPJoin(nil) = %v", got)
	}
	got, _ := PPJoin([][]uint32{{1, 2}, {1, 2}}, 0.9)
	if len(got) != 1 {
		t.Errorf("PPJoin(two identical) = %v", got)
	}
}

func TestPPOnGeneratedWorkloads(t *testing.T) {
	zipf := datagen.Zipf(400, 15, 400, 0.9, 20)
	for _, lambda := range []float64{0.5, 0.7, 0.9} {
		want := verify.BruteForceJoin(zipf.Sets, lambda)
		got, _ := PPJoin(zipf.Sets, lambda)
		if !stats.EqualPairSets(got, want) {
			t.Fatalf("λ=%v: got %d pairs, want %d", lambda, len(got), len(want))
		}
	}
}

func BenchmarkPPJoinUniform(b *testing.B) {
	ds := datagen.Uniform(2000, 10, 300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PPJoin(ds.Sets, 0.5)
	}
}

// TestPPGoldenExactJoins pins the one probe loop of PPJoinWorkers to what
// the commit before it returned at one worker, where probing was still
// interleaved with indexing: SHA-256 of the sorted pair set and all three
// counters, on both shapes of the perf ledger, the same at every worker
// count. The pair sets are the ones TestGoldenExactJoins pins for Join.
// skew/l80's Candidates were 1063 while the positional filter's bound was
// ⌈λ/(1+λ)·(|x|+|y|)⌉ in floats, one above intset.MinOverlap at some sizes
// (0.8/1.8·63 rounds above 28): the two candidates it pruned are verified
// now, and fail.
func TestPPGoldenExactJoins(t *testing.T) {
	flat := datagen.LedgerShape(false, 3000, 1)
	skew := datagen.LedgerShape(true, 3000, 2)
	for _, tc := range []struct {
		name   string
		sets   [][]uint32
		lambda float64
		digest string
		c      verify.Counters
	}{
		{"flat/l50", flat, 0.5, "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", verify.Counters{PreCandidates: 651102, Candidates: 416769, Results: 302}},
		{"flat/l80", flat, 0.8, "bb5a13436d99c86a036e1a3b786e1a30703c0325bbe2000580751bdc390a23bc", verify.Counters{PreCandidates: 105639, Candidates: 69014, Results: 223}},
		{"skew/l50", skew, 0.5, "09fa9fe8fd7b63cb9895a87f55369d6301c526a885f9ade291be1e43266e8cb1", verify.Counters{PreCandidates: 21870, Candidates: 8119, Results: 1532}},
		{"skew/l80", skew, 0.8, "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", verify.Counters{PreCandidates: 1423, Candidates: 1065, Results: 450}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 4} {
				pairs, c := PPJoinWorkers(tc.sets, tc.lambda, workers)
				if d := stats.PairDigest(pairs); d != tc.digest || c != tc.c {
					t.Errorf("workers=%d: pairs %s counters %+v, want %s %+v", workers, d, c, tc.digest, tc.c)
				}
			}
		})
	}
}
