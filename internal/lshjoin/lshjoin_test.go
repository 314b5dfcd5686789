package lshjoin

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// within fails the test if f has not returned after ten seconds, instead of
// letting it hang the suite: samplePositions draws distinct positions by
// rejection and never ends when asked for more than there are.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still running after 10 s", what)
	}
}

// testWorkload builds a dataset with known similar pairs.
func testWorkload(seed uint64) [][]uint32 {
	ds := datagen.Uniform(800, 20, 4000, seed)
	datagen.PlantPairs(ds, 40, 0.6, seed+1)
	datagen.PlantPairs(ds, 40, 0.8, seed+2)
	return ds.Sets
}

func TestPrecisionIsPerfect(t *testing.T) {
	sets := testWorkload(1)
	got, _ := Join(sets, 0.5, &Options{Seed: 7})
	for _, p := range got {
		if j := intset.Jaccard(sets[p.A], sets[p.B]); j < 0.5 {
			t.Fatalf("false positive (%d,%d) with J=%v", p.A, p.B, j)
		}
	}
}

func TestRecallMeetsTarget(t *testing.T) {
	sets := testWorkload(2)
	for _, lambda := range []float64{0.5, 0.7} {
		truth := verify.BruteForceJoin(sets, lambda)
		if len(truth) == 0 {
			t.Fatalf("workload has no results at λ=%v", lambda)
		}
		got, _ := Join(sets, lambda, &Options{Seed: 11, TargetRecall: 0.9})
		r := stats.Recall(got, truth)
		if r < 0.85 { // small slack: per-pair guarantee, finite sample
			t.Errorf("λ=%v: recall %v < 0.85 (%d/%d pairs)", lambda, r, len(got), len(truth))
		}
	}
}

func TestNoDuplicatePairs(t *testing.T) {
	sets := testWorkload(3)
	got, _ := Join(sets, 0.5, &Options{Seed: 3})
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

func TestRepetitions(t *testing.T) {
	// L = ceil(ln(1/(1-phi)) / lambda^k).
	if got := Repetitions(0.5, 2, 0.9); got != 10 {
		t.Errorf("Repetitions(0.5, 2, 0.9) = %d, want 10", got)
	}
	if got := Repetitions(0.9, 1, 0.5); got != 1 {
		t.Errorf("Repetitions(0.9, 1, 0.5) = %d, want 1", got)
	}
	// More hashes -> more repetitions needed.
	if Repetitions(0.5, 6, 0.9) <= Repetitions(0.5, 3, 0.9) {
		t.Error("Repetitions not increasing in k")
	}
}

func TestSamplePositionsDistinct(t *testing.T) {
	rng := tabhash.NewSplitMix64(1)
	// Ten of 128 as in a default join, and all of eight: the most a caller
	// may ask for (JoinIndexed caps K and the sweep of chooseK at T).
	for _, tc := range []struct{ k, t int }{{10, 128}, {8, 8}} {
		pos := make([]int, tc.k)
		for trial := 0; trial < 100; trial++ {
			within(t, "samplePositions", func() { samplePositions(rng, pos, tc.t) })
			seen := make(map[int]bool)
			for _, p := range pos {
				if p < 0 || p >= tc.t {
					t.Fatalf("position %d out of range", p)
				}
				if seen[p] {
					t.Fatal("duplicate position sampled")
				}
				seen[p] = true
			}
		}
	}
}

func TestExplicitK(t *testing.T) {
	sets := testWorkload(4)
	got, _ := Join(sets, 0.6, &Options{K: 4, Seed: 5})
	for _, p := range got {
		if intset.Jaccard(sets[p.A], sets[p.B]) < 0.6 {
			t.Fatal("false positive with explicit k")
		}
	}
	// A signature shorter than the sweep of chooseK (k up to 10), and an
	// explicit K beyond it: both used to spin in samplePositions forever.
	truth := verify.BruteForceJoin(sets, 0.6)
	for _, opt := range []Options{{T: 8, Seed: 1}, {T: 8, K: 12, Seed: 1}, {T: 1, Seed: 1}} {
		within(t, "Join with a short signature", func() { got, _ = Join(sets, 0.6, &opt) })
		if len(got) == 0 || stats.Precision(got, truth) != 1 {
			t.Errorf("T=%d K=%d: %d pairs, precision %v", opt.T, opt.K, len(got), stats.Precision(got, truth))
		}
	}
}

func TestSketchFilterDisabled(t *testing.T) {
	sets := testWorkload(5)
	truth := verify.BruteForceJoin(sets, 0.7)
	got, _ := Join(sets, 0.7, &Options{Seed: 6, SketchWords: -1})
	if r := stats.Recall(got, truth); r < 0.85 {
		t.Errorf("recall without sketches %v", r)
	}
}

func TestTinyInputs(t *testing.T) {
	if got, _ := Join(nil, 0.5, nil); got != nil {
		t.Error("Join(nil) returned pairs")
	}
	if got, _ := Join([][]uint32{{1, 2}}, 0.5, nil); got != nil {
		t.Error("Join(single) returned pairs")
	}
}

func TestInvalidLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("lambda=1.5 did not panic")
		}
	}()
	Join([][]uint32{{1, 2}, {3, 4}}, 1.5, nil)
}

func TestCountersSane(t *testing.T) {
	sets := testWorkload(8)
	got, c := Join(sets, 0.5, &Options{Seed: 9})
	if c.Results != int64(len(got)) {
		t.Errorf("Results counter %d, pairs %d", c.Results, len(got))
	}
	if c.Candidates > c.PreCandidates {
		t.Errorf("candidates %d > pre-candidates %d", c.Candidates, c.PreCandidates)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	sets := testWorkload(10)
	a, _ := Join(sets, 0.6, &Options{Seed: 42})
	b, _ := Join(sets, 0.6, &Options{Seed: 42})
	if !stats.EqualPairSets(a, b) {
		t.Error("same seed produced different results")
	}
}

// TestGoldenJoin pins the join to what it returned at the commit before its
// buckets went through the shared block kernel (verify.Pipeline), when a
// loop of its own checked a bucket pair by pair, looking every pair up in
// the result set first: SHA-256 of the sorted pair set at every worker
// count, and at one worker the three counters — Candidates are the pairs
// that pass the filters and are not yet results, whichever is asked first —
// on both shapes of the perf ledger, sketches on and off. Repetitions,
// recorded later, is L: without a recall target the join runs exactly its
// default count. The sketch cases were re-recorded once, when a sketch bit
// became the low bit of a 32-bit minimum; the cases without sketches did
// not move.
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
		{"flat/l50/sketches", flat, 0.5, 0, "299f2fbfe693d8f42125fc12088108caba6a9a89582e993e9425769df22c5275", verify.Counters{PreCandidates: 91748, Candidates: 311, Results: 299, Repetitions: 10}},
		{"flat/l80/sketches", flat, 0.8, 0, "bb5a13436d99c86a036e1a3b786e1a30703c0325bbe2000580751bdc390a23bc", verify.Counters{PreCandidates: 3466, Candidates: 223, Results: 223, Repetitions: 5}},
		{"flat/l50/none", flat, 0.5, -1, "e43e631a0ddd26252648bfe2f542627396da1420bde6d33583c4028eea7af787", verify.Counters{PreCandidates: 91748, Candidates: 80385, Results: 301, Repetitions: 10}},
		{"flat/l80/none", flat, 0.8, -1, "bb5a13436d99c86a036e1a3b786e1a30703c0325bbe2000580751bdc390a23bc", verify.Counters{PreCandidates: 3466, Candidates: 1323, Results: 223, Repetitions: 5}},
		{"skew/l50/sketches", skew, 0.5, 0, "fff703c212150966b5e9233c5fad2504f8a0e2c524c026b7dc64f4e89d0a1f8d", verify.Counters{PreCandidates: 40258, Candidates: 1514, Results: 1402, Repetitions: 19}},
		{"skew/l80/sketches", skew, 0.8, 0, "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", verify.Counters{PreCandidates: 9219, Candidates: 450, Results: 450, Repetitions: 5}},
		{"skew/l50/none", skew, 0.5, -1, "27e203d859714693bb5ae00100ec2badb69a19aab1d5d300f048125bac08b165", verify.Counters{PreCandidates: 40258, Candidates: 21971, Results: 1466, Repetitions: 19}},
		{"skew/l80/none", skew, 0.8, -1, "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", verify.Counters{PreCandidates: 9219, Candidates: 3794, Results: 450, Repetitions: 5}},
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

// approximate are the three joins that repeat on verify.Repeat, run against
// a prebuilt index with seed 42, the given worker count and r repetitions (0:
// the join's default count).
var approximate = []struct {
	name string
	join func(ix *prep.Index, lambda float64, workers, r int) ([]verify.Pair, verify.Counters)
}{
	{"cpsjoin", func(ix *prep.Index, lambda float64, workers, r int) ([]verify.Pair, verify.Counters) {
		return core.JoinIndexed(ix, lambda, &core.Options{Seed: 42, Workers: workers, Repetitions: r})
	}},
	{"minhash", func(ix *prep.Index, lambda float64, workers, r int) ([]verify.Pair, verify.Counters) {
		return JoinIndexed(ix, lambda, &Options{Seed: 42, Workers: workers, L: r})
	}},
	{"bayeslsh", func(ix *prep.Index, lambda float64, workers, r int) ([]verify.Pair, verify.Counters) {
		return BayesJoinIndexed(ix, lambda, &Options{Seed: 42, Workers: workers, L: r})
	}},
}

// TestRepetitionsNest: repetition i of every approximate join draws only from
// its seed and i, so the pairs a join finds at r repetitions are a subset of
// those it finds at r + 1, at every worker count — the property that lets a
// harness search the repetition count a recall target needs by running
// whole joins. Checked at r = 1, d − 1 and d for the default count d, and
// from d to 4d, the harness's cap; every join runs exactly its count.
func TestRepetitionsNest(t *testing.T) {
	sets := datagen.LedgerShape(true, 3000, 1)
	ix := prep.Build(sets, 128, 8, 42)
	const lambda = 0.5
	for _, a := range approximate {
		for _, workers := range []int{1, 4} {
			at := map[int][]verify.Pair{}
			run := func(r int) []verify.Pair {
				if pairs, ok := at[r]; ok {
					return pairs
				}
				pairs, c := a.join(ix, lambda, workers, r)
				if c.Repetitions != int64(r) {
					t.Errorf("%s workers=%d: asked for %d repetitions, ran %d", a.name, workers, r, c.Repetitions)
				}
				at[r] = pairs
				return pairs
			}
			def, c := a.join(ix, lambda, workers, 0)
			d := int(c.Repetitions)
			if d < 2 {
				t.Fatalf("%s: default count %d, too few to check d − 1", a.name, d)
			}
			at[d] = def
			for _, pair := range [][2]int{{1, 2}, {d - 1, d}, {d, d + 1}, {d, 4 * d}} {
				small, big := run(pair[0]), run(pair[1])
				if r := stats.Recall(big, small); r != 1 || len(big) < len(small) {
					t.Errorf("%s workers=%d: %d repetitions find %v of the %d pairs of %d (%d pairs)",
						a.name, workers, pair[1], r, len(small), pair[0], len(big))
				}
			}
		}
	}
}
