package verify

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/intset"
)

func TestMakePairNormalizes(t *testing.T) {
	if MakePair(5, 2) != (Pair{A: 2, B: 5}) {
		t.Error("MakePair did not normalize")
	}
	if MakePair(2, 5) != (Pair{A: 2, B: 5}) {
		t.Error("MakePair changed ordered input")
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		p := MakePair(a, b)
		return PairFromKey(p.Key()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSortPairs: A first, then B, also for R-S pairs, whose A may exceed
// their B.
func TestSortPairs(t *testing.T) {
	ps := []Pair{{A: 3, B: 4}, {A: 1, B: 5}, {A: 3, B: 1}, {A: 1, B: 2}}
	SortPairs(ps)
	want := []Pair{{A: 1, B: 2}, {A: 1, B: 5}, {A: 3, B: 1}, {A: 3, B: 4}}
	if !slices.Equal(ps, want) {
		t.Fatalf("SortPairs = %v, want %v", ps, want)
	}
}

func randomSet(rng *rand.Rand, size, universe int) []uint32 {
	s := make([]uint32, 0, size)
	for i := 0; i < size; i++ {
		s = append(s, uint32(rng.Intn(universe)))
	}
	return intset.Normalize(s)
}

func TestVerifyMatchesDirectJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]uint32, 60)
	for i := range sets {
		sets[i] = randomSet(rng, 2+rng.Intn(25), 40)
	}
	for _, lambda := range []float64{0.5, 0.7, 0.9} {
		v := NewVerifier(sets, lambda)
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				want := intset.Jaccard(sets[i], sets[j]) >= lambda
				if got := v.Verify(uint32(i), uint32(j)); got != want {
					t.Fatalf("Verify(%d, %d) = %v, want %v (J=%v, λ=%v)",
						i, j, got, want, intset.Jaccard(sets[i], sets[j]), lambda)
				}
			}
		}
	}
}

// TestSizeCompatible runs pairs of sets of the given sizes through the
// kernel with sketches off: the pair is a candidate exactly when the size
// filter passes it.
func TestSizeCompatible(t *testing.T) {
	for _, c := range []struct {
		lambda float64
		la, lb int
		want   bool
	}{
		{0.5, 10, 10, true},
		{0.5, 10, 20, true},  // J can be 10/20 = 0.5
		{0.5, 10, 21, false}, // J at most 10/21 < 0.5
		{0.5, 21, 10, false}, // symmetric
		{0.5, 5, 2, false},
		{0.5, 4, 2, true},
		{0.55, 55, 100, true}, // 55/100 >= 0.55, though 0.55·100 > 55
		{0.9, 70, 63, true},   // likewise 0.9·70 > 63
		{0.9, 70, 62, false},
	} {
		p := NewPipeline([][]uint32{make([]uint32, c.la), make([]uint32, c.lb)}, c.lambda, 1)
		s := p.NewScratches()
		s[0].BruteForcePairs([]uint32{0, 1})
		if got := s[0].Cand == 1; got != c.want {
			t.Errorf("sizes %d and %d at %v: candidate %v, want %v", c.la, c.lb, c.lambda, got, c.want)
		}
	}
}

func TestResultSetDedup(t *testing.T) {
	r := NewResultSet(1)
	if !r.Add(3, 1) {
		t.Error("first Add returned false")
	}
	if r.Add(1, 3) {
		t.Error("duplicate Add (reversed) returned true")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(3, 1) || !r.Contains(1, 3) {
		t.Error("Contains failed")
	}
	pairs := r.Pairs()
	if len(pairs) != 1 || pairs[0] != (Pair{A: 1, B: 3}) {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestBruteForceJoinGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sets := make([][]uint32, 80)
	for i := range sets {
		sets[i] = randomSet(rng, 2+rng.Intn(15), 30)
	}
	for _, lambda := range []float64{0.5, 0.8} {
		got := BruteForceJoin(sets, lambda)
		// Reference: direct Jaccard on all pairs.
		want := 0
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				if intset.Jaccard(sets[i], sets[j]) >= lambda {
					want++
				}
			}
		}
		if len(got) != want {
			t.Fatalf("λ=%v: BruteForceJoin found %d pairs, want %d", lambda, len(got), want)
		}
		// All pairs normalized and above threshold.
		for _, p := range got {
			if p.A >= p.B {
				t.Fatalf("unnormalized pair %v", p)
			}
			if intset.Jaccard(sets[p.A], sets[p.B]) < lambda {
				t.Fatalf("false positive %v", p)
			}
		}
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{PreCandidates: 1, Candidates: 2, Results: 3}
	a.Add(Counters{PreCandidates: 10, Candidates: 20, Results: 30})
	if a.PreCandidates != 11 || a.Candidates != 22 || a.Results != 33 {
		t.Errorf("Add result %+v", a)
	}
}
