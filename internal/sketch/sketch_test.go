package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/intset"
)

func randomSet(rng *rand.Rand, size, universe int) []uint32 {
	m := make(map[uint32]bool, size)
	for len(m) < size {
		m[uint32(rng.Intn(universe))] = true
	}
	out := make([]uint32, 0, size)
	for v := range m {
		out = append(out, v)
	}
	return intset.Normalize(out)
}

func overlappingPair(rng *rand.Rand, size, shared, universe int) ([]uint32, []uint32) {
	pool := randomSet(rng, 2*size-shared, universe)
	a := append([]uint32(nil), pool[:size]...)
	b := append([]uint32(nil), pool[size-shared:]...)
	return intset.Normalize(a), intset.Normalize(b)
}

func TestSketchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set := randomSet(rng, 30, 1000)
	a := NewMaker(4, 9).Sketch(set)
	b := NewMaker(4, 9).Sketch(set)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sketches")
		}
	}
}

func TestIdenticalSetsZeroHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMaker(8, 3)
	set := randomSet(rng, 50, 5000)
	if d := Hamming(m.Sketch(set), m.Sketch(set)); d != 0 {
		t.Fatalf("Hamming(x, x) = %d", d)
	}
	if j := EstimateJaccard(m.Sketch(set), m.Sketch(set)); j != 1 {
		t.Fatalf("EstimateJaccard(x, x) = %v", j)
	}
}

func TestHamming(t *testing.T) {
	a := []uint64{0xF0, 0x01}
	b := []uint64{0x0F, 0x01}
	if d := Hamming(a, b); d != 8 {
		t.Fatalf("Hamming = %d, want 8", d)
	}
	if g := AgreeBits(a, b); g != 120 {
		t.Fatalf("AgreeBits = %d, want 120", g)
	}
}

// TestEstimatorAccuracy: the sketch similarity estimate should concentrate
// around the true Jaccard similarity. Bit agreement probability is
// (1+J)/2, so with 512*reps bits the estimator is tight.
func TestEstimatorAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	size := 100
	for _, wantJ := range []float64{0.25, 0.5, 0.75} {
		shared := int(math.Round(2 * wantJ / (1 + wantJ) * float64(size)))
		a, b := overlappingPair(rng, size, shared, 100000)
		trueJ := intset.Jaccard(a, b)
		est := 0.0
		const reps = 8
		for r := 0; r < reps; r++ {
			m := NewMaker(8, uint64(100+r))
			est += EstimateJaccard(m.Sketch(a), m.Sketch(b))
		}
		est /= reps
		if math.Abs(est-trueJ) > 0.06 {
			t.Errorf("sketch estimate %v too far from true J %v", est, trueJ)
		}
	}
}

func TestSketchAllLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := make([][]uint32, 15)
	for i := range sets {
		sets[i] = randomSet(rng, 2+rng.Intn(30), 1000)
	}
	m := NewMaker(2, 6)
	flat := m.SketchAll(sets)
	if len(flat) != 15*2 {
		t.Fatalf("flat length %d", len(flat))
	}
	for i, set := range sets {
		want := m.Sketch(set)
		got := flat[i*2 : (i+1)*2]
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("SketchAll disagrees with Sketch for set %d", i)
		}
	}
}

func TestFilterThresholdMonotoneInDelta(t *testing.T) {
	// Smaller delta (fewer false negatives allowed) must lower the
	// agreement bar.
	prev := -1
	for _, delta := range []float64{0.5, 0.2, 0.05, 0.01, 0.001} {
		f := NewFilter(8, 0.5, delta)
		if prev != -1 && f.MinAgree > prev {
			t.Fatalf("MinAgree increased when delta decreased: %d -> %d",
				prev, f.MinAgree)
		}
		prev = f.MinAgree
	}
}

func TestFilterThresholdMonotoneInLambda(t *testing.T) {
	prev := -1
	for _, lambda := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		f := NewFilter(8, lambda, 0.05)
		if f.MinAgree < prev {
			t.Fatalf("MinAgree decreased when lambda increased")
		}
		prev = f.MinAgree
	}
}

func TestFilterCalibration(t *testing.T) {
	// Check the binomial calibration directly: at the chosen MinAgree,
	// the miss probability is <= delta, and MinAgree+1 would exceed it.
	for _, lambda := range []float64{0.5, 0.7, 0.9} {
		for _, words := range []int{1, 4, 8} {
			f := NewFilter(words, lambda, 0.05)
			n := 64 * words
			p := (1 + lambda) / 2
			if miss := BinomTail(n, f.MinAgree, p); miss > 0.05+1e-9 {
				t.Errorf("words=%d λ=%v: miss prob %v > δ", words, lambda, miss)
			}
			if miss := BinomTail(n, f.MinAgree+1, p); miss <= 0.05 {
				t.Errorf("words=%d λ=%v: MinAgree not maximal", words, lambda)
			}
		}
	}
}

// TestFilterFalseNegativeRate: on pairs at exactly the threshold
// similarity, the filter's empirical false-negative rate stays within δ plus
// three binomial standard deviations of the trial count, on each fold path
// this CPU has. The cases put J = λ exactly at λ 0.5 and 0.8 on sets of 4
// to 6, 10 and 40 tokens, where a sketch bit is the low bit of a minimum
// over very few hash values: there the bits must still agree with
// probability (1+J)/2 each, independently, as NewFilter's calibration
// assumes. (No two sets of at most 6 tokens, one of them 6, have J = 0.8
// exactly.)
func TestFilterFalseNegativeRate(t *testing.T) {
	eachFoldPath(t, checkFilterFalseNegativeRate)
}

func checkFilterFalseNegativeRate(t *testing.T) {
	const delta, trials = 0.05, 2000
	// A pool of independent sketch functions keeps the test honest without
	// paying table construction for every trial.
	makers := make([]*Maker, 24)
	for i := range makers {
		makers[i] = NewMaker(8, uint64(i))
	}
	floor := delta + 3*math.Sqrt(delta*(1-delta)/trials)
	for _, tc := range []struct {
		lambda     float64
		a, b, both int // the two set sizes and their intersection: J = λ
	}{
		{0.5, 4, 5, 3}, {0.5, 6, 6, 4}, {0.5, 10, 11, 7}, {0.5, 40, 41, 27},
		{0.8, 4, 5, 4}, {0.8, 10, 8, 8}, {0.8, 40, 41, 36},
	} {
		rng := rand.New(rand.NewSource(int64(7 + tc.a)))
		f := NewFilter(8, tc.lambda, delta)
		misses := 0
		for r := range trials {
			pool := randomSet(rng, tc.a+tc.b-tc.both, 1<<20)
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			x := intset.Normalize(slices.Clone(pool[:tc.a]))
			y := intset.Normalize(slices.Clone(pool[tc.a-tc.both:]))
			if j := intset.Jaccard(x, y); j != tc.lambda {
				t.Fatalf("sizes %d and %d sharing %d: J = %v, not λ = %v", tc.a, tc.b, tc.both, j, tc.lambda)
			}
			m := makers[r%len(makers)]
			if !f.Accept(m.Sketch(x), m.Sketch(y)) {
				misses++
			}
		}
		rate := float64(misses) / trials
		t.Logf("λ=%v sizes %d and %d: false-negative rate %.4f (%d/%d), floor %.4f", tc.lambda, tc.a, tc.b, rate, misses, trials, floor)
		if rate > floor {
			t.Errorf("λ=%v sizes %d and %d: false-negative rate %v (misses %d/%d) exceeds δ=%v plus three standard deviations, %v",
				tc.lambda, tc.a, tc.b, rate, misses, trials, delta, floor)
		}
	}
}

// TestFilterRejectsDissimilar: pairs far below the threshold should
// overwhelmingly fail the filter.
func TestFilterRejectsDissimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMaker(8, 1)
	f := NewFilter(8, 0.7, 0.05)
	accepted := 0
	const trials = 200
	for r := 0; r < trials; r++ {
		a := randomSet(rng, 60, 1000000)
		b := randomSet(rng, 60, 1000000)
		if f.Accept(m.Sketch(a), m.Sketch(b)) {
			accepted++
		}
	}
	if accepted > trials/10 {
		t.Errorf("filter accepted %d/%d near-disjoint pairs", accepted, trials)
	}
}

func TestBinomTail(t *testing.T) {
	// Pr[Binom(4, 0.5) < 3] = (1 + 4 + 6) / 16 = 0.6875.
	if got := BinomTail(4, 3, 0.5); math.Abs(got-0.6875) > 1e-12 {
		t.Fatalf("BinomTail(4, 3, 0.5) = %v, want 0.6875", got)
	}
	if got := BinomTail(10, 0, 0.3); got != 0 {
		t.Fatalf("empty tail = %v", got)
	}
	if got := BinomTail(10, 11, 0.3); math.Abs(got-1) > 1e-9 {
		t.Fatalf("full tail = %v", got)
	}
}

// TestHammingBelowMatchesEstimate pins the stopping rule's integer test to
// the float test it replaces: on sketches built at every exact distance d,
// d < HammingBelow(W, (1-ε)λ) holds exactly when EstimateJaccard is above
// (1-ε)λ.
func TestHammingBelowMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, words := range []int{1, 3, 8, 16} {
		x := make([]uint64, words)
		for i := range x {
			x[i] = rng.Uint64()
		}
		order := rng.Perm(64 * words)
		for _, lambda := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			for _, eps := range []float64{0, 0.1, 0.5} {
				threshold := (1 - eps) * lambda
				bound := HammingBelow(words, threshold)
				node := slices.Clone(x)
				for d := 0; d <= 64*words; d++ {
					if d > 0 {
						node[order[d-1]/64] ^= 1 << (order[d-1] % 64)
					}
					if below, above := d < bound, EstimateJaccard(x, node) > threshold; below != above {
						t.Errorf("W=%d λ=%v ε=%v d=%d: d < %d is %v, the estimate above %v is %v", words, lambda, eps, d, bound, below, threshold, above)
					}
				}
			}
		}
	}
}

func TestNewFilterValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFilter(0, 0.5, 0.05) },
		func() { NewFilter(8, 0, 0.05) },
		func() { NewFilter(8, 1, 0.05) },
		func() { NewFilter(8, 0.5, 0) },
		func() { NewFilter(8, 0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewFilter args did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkHamming(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := NewMaker(8, 1)
	x := m.Sketch(randomSet(rng, 100, 100000))
	y := m.Sketch(randomSet(rng, 100, 100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hamming(x, y)
	}
}
