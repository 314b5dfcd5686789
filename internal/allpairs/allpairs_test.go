package allpairs

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/stats"
	"repro/internal/verify"
)

func randomSets(seed int64, n, maxLen, universe int) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]uint32, n)
	for i := range sets {
		m := 2 + rng.Intn(maxLen-1)
		s := make([]uint32, 0, m)
		for j := 0; j < m; j++ {
			s = append(s, uint32(rng.Intn(universe)))
		}
		s = intset.Normalize(s)
		for len(s) < 2 {
			s = intset.Normalize(append(s, uint32(rng.Intn(universe))))
		}
		sets[i] = s
	}
	return sets
}

func TestExactAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		seed              int64
		n, maxLen, domain int
	}{
		{1, 150, 12, 30},  // small dense sets: many results
		{2, 200, 20, 200}, // sparser
		{3, 100, 40, 60},  // large sets, tiny universe: extreme density
		{4, 300, 8, 2000}, // rare tokens: prefix filter's home turf
	} {
		sets := randomSets(tc.seed, tc.n, tc.maxLen, tc.domain)
		for _, lambda := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			want := verify.BruteForceJoin(sets, lambda)
			got, counters := Join(sets, lambda)
			if !stats.EqualPairSets(got, want) {
				t.Fatalf("seed=%d λ=%v: AllPairs %d pairs, brute force %d; missing=%v",
					tc.seed, lambda, len(got), len(want),
					stats.Missing(got, want))
			}
			if counters.Results != int64(len(got)) {
				t.Errorf("Results counter %d != %d pairs", counters.Results, len(got))
			}
			if counters.Candidates > counters.PreCandidates {
				t.Errorf("candidates %d > pre-candidates %d",
					counters.Candidates, counters.PreCandidates)
			}
		}
	}
}

func TestIdenticalSets(t *testing.T) {
	sets := [][]uint32{
		{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {4, 5, 6},
	}
	got, _ := Join(sets, 0.9)
	if len(got) != 3 { // three identical pairs
		t.Fatalf("got %d pairs, want 3: %v", len(got), got)
	}
}

func TestTinyInputs(t *testing.T) {
	if got, _ := Join(nil, 0.5); got != nil {
		t.Errorf("Join(nil) = %v", got)
	}
	if got, _ := Join([][]uint32{{1, 2}}, 0.5); got != nil {
		t.Errorf("Join(single) = %v", got)
	}
	got, _ := Join([][]uint32{{1, 2}, {1, 2}}, 0.5)
	if len(got) != 1 {
		t.Errorf("Join(two identical) = %v", got)
	}
}

func TestInputNotModified(t *testing.T) {
	sets := [][]uint32{{5, 9, 11}, {5, 9, 12}, {1, 2}}
	orig := make([][]uint32, len(sets))
	for i := range sets {
		orig[i] = append([]uint32(nil), sets[i]...)
	}
	Join(sets, 0.5)
	for i := range sets {
		if !intset.Equal(sets[i], orig[i]) {
			t.Fatalf("input set %d modified: %v -> %v", i, orig[i], sets[i])
		}
	}
}

func TestPrefixLengths(t *testing.T) {
	// probePrefix: a set of size 10 at λ=0.5 needs overlap >= 5 with the
	// smallest partner, so 10-5+1 = 6 prefix tokens suffice.
	if got := probePrefix(10, 0.5); got != 6 {
		t.Errorf("probePrefix(10, 0.5) = %d, want 6", got)
	}
	// indexPrefix: equal-size partner needs overlap >= ceil(2*0.5/1.5*10)=7.
	if got := indexPrefix(10, 0.5); got != 4 {
		t.Errorf("indexPrefix(10, 0.5) = %d, want 4", got)
	}
	// High threshold: prefixes shrink.
	if got := probePrefix(10, 0.9); got != 2 {
		t.Errorf("probePrefix(10, 0.9) = %d, want 2", got)
	}
}

func TestOnGeneratedWorkloads(t *testing.T) {
	uniform := datagen.Uniform(400, 10, 100, 17)
	zipf := datagen.Zipf(400, 10, 500, 1.0, 18)
	for name, ds := range map[string][][]uint32{"uniform": uniform.Sets, "zipf": zipf.Sets} {
		for _, lambda := range []float64{0.5, 0.7} {
			want := verify.BruteForceJoin(ds, lambda)
			got, _ := Join(ds, lambda)
			if !stats.EqualPairSets(got, want) {
				t.Fatalf("%s λ=%v: got %d pairs, want %d", name, lambda, len(got), len(want))
			}
		}
	}
}

func BenchmarkAllPairsUniform(b *testing.B) {
	ds := datagen.Uniform(2000, 10, 300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(ds.Sets, 0.5)
	}
}

// splitEvenOdd makes an R-S instance of one collection: the even-numbered
// sets against the odd-numbered.
func splitEvenOdd(sets [][]uint32) (r, s [][]uint32) {
	for i, set := range sets {
		if i%2 == 0 {
			r = append(r, set)
		} else {
			s = append(s, set)
		}
	}
	return r, s
}

// TestGoldenExactJoins pins the one probe loop of JoinWorkers and of
// JoinRSWorkers to what the commit before it returned at one worker, where
// the self-join still interleaved probing with indexing, one set at a time,
// as Mann et al. describe it: SHA-256 of the sorted pair set and all three
// counters, on both shapes of the perf ledger, the same at every worker
// count. Probing a materialized index for the postings of smaller ids looks
// at exactly the pairs the interleaved loop looked at.
func TestGoldenExactJoins(t *testing.T) {
	flat := datagen.LedgerShape(false, 3000, 1)
	skew := datagen.LedgerShape(true, 3000, 2)
	for _, tc := range []struct {
		name   string
		sets   [][]uint32
		rs     bool
		lambda float64
		digest string
		c      verify.Counters
	}{
		{"flat/l50", flat, false, 0.5, "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", verify.Counters{PreCandidates: 651102, Candidates: 608390, Results: 302}},
		{"flat/l80", flat, false, 0.8, "bb5a13436d99c86a036e1a3b786e1a30703c0325bbe2000580751bdc390a23bc", verify.Counters{PreCandidates: 105639, Candidates: 103993, Results: 223}},
		{"skew/l50", skew, false, 0.5, "09fa9fe8fd7b63cb9895a87f55369d6301c526a885f9ade291be1e43266e8cb1", verify.Counters{PreCandidates: 21870, Candidates: 20555, Results: 1532}},
		{"skew/l80", skew, false, 0.8, "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", verify.Counters{PreCandidates: 1423, Candidates: 1221, Results: 450}},
		{"rs/flat/l50", flat, true, 0.5, "e5f0d1fa0b0d6612b9425d77880ac0ea7b347cd4dcaf02e32dd680c986d60b58", verify.Counters{PreCandidates: 475927, Candidates: 387056, Results: 300}},
		{"rs/flat/l80", flat, true, 0.8, "0426a924f08e8954388876ba22429456e2ba946859b3940967e1a75882180f1f", verify.Counters{PreCandidates: 171979, Candidates: 68427, Results: 223}},
		{"rs/skew/l50", skew, true, 0.5, "e73475787ac91bcb5df317b009b7f39315d9b476b72f8f345a573800b1080e20", verify.Counters{PreCandidates: 64546, Candidates: 33357, Results: 921}},
		{"rs/skew/l80", skew, true, 0.8, "c97b393930a8fdb7a0fcc734692fcc619eb9eebc7ecdbffd6a8eed49c4176ab3", verify.Counters{PreCandidates: 3845, Candidates: 876, Results: 346}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 4} {
				var pairs []verify.Pair
				var c verify.Counters
				if tc.rs {
					r, s := splitEvenOdd(tc.sets)
					pairs, c = JoinRSWorkers(r, s, tc.lambda, workers)
				} else {
					pairs, c = JoinWorkers(tc.sets, tc.lambda, workers)
				}
				if d := stats.PairDigest(pairs); d != tc.digest || c != tc.c {
					t.Errorf("workers=%d: pairs %s counters %+v, want %s %+v", workers, d, c, tc.digest, tc.c)
				}
			}
		})
	}
}
