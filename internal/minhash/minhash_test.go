package minhash

import (
	"math"
	"math/rand"
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

// overlappingPair builds two sets of the given size with exactly `shared`
// common tokens.
func overlappingPair(rng *rand.Rand, size, shared, universe int) ([]uint32, []uint32) {
	pool := randomSet(rng, 2*size-shared, universe)
	a := append([]uint32(nil), pool[:size]...)
	b := append([]uint32(nil), pool[size-shared:]...)
	return intset.Normalize(a), intset.Normalize(b)
}

func TestSignDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s1 := NewSigner(64, 77)
	s2 := NewSigner(64, 77)
	set := randomSet(rng, 30, 1000)
	a, b := s1.Sign(set), s2.Sign(set)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different signatures")
		}
	}
}

func TestSignMemberOfSet(t *testing.T) {
	// Each signature entry must be a member of the set (it is the argmin
	// token).
	rng := rand.New(rand.NewSource(2))
	s := NewSigner(32, 3)
	for i := 0; i < 50; i++ {
		set := randomSet(rng, 1+rng.Intn(40), 500)
		for _, v := range s.Sign(set) {
			if !intset.Contains(set, v) {
				t.Fatalf("signature value %d not in set %v", v, set)
			}
		}
	}
}

func TestSignIdenticalSetsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSigner(64, 4)
	set := randomSet(rng, 25, 400)
	if Estimate(s.Sign(set), s.Sign(set)) != 1 {
		t.Fatal("identical sets must have estimate 1")
	}
}

func TestSignEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sign(empty) did not panic")
		}
	}()
	NewSigner(8, 1).Sign(nil)
}

// TestEstimatorUnbiased checks that the MinHash collision rate matches the
// true Jaccard similarity within binomial confidence bounds. This is the
// statistical correctness of equation (1) of the paper.
func TestEstimatorUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const t512 = 512
	for _, wantJ := range []float64{0.2, 0.5, 0.8} {
		size := 100
		shared := int(math.Round(2 * wantJ / (1 + wantJ) * float64(size)))
		a, b := overlappingPair(rng, size, shared, 100000)
		trueJ := intset.Jaccard(a, b)
		// Average over several independent signers to tighten the bound.
		est := 0.0
		const reps = 8
		for r := 0; r < reps; r++ {
			s := NewSigner(t512, uint64(1000+r))
			est += Estimate(s.Sign(a), s.Sign(b))
		}
		est /= reps
		// Std dev of mean ≈ sqrt(J(1-J)/(t*reps)) <= 0.008; 5 sigma bound.
		if math.Abs(est-trueJ) > 0.045 {
			t.Errorf("estimate %v too far from true J %v", est, trueJ)
		}
	}
}

func TestSignAllLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sets := make([][]uint32, 20)
	for i := range sets {
		sets[i] = randomSet(rng, 2+rng.Intn(20), 300)
	}
	s := NewSigner(16, 7)
	flat := s.SignAll(sets)
	if len(flat) != 20*16 {
		t.Fatalf("flat length %d", len(flat))
	}
	for i, set := range sets {
		want := s.Sign(set)
		got := flat[i*16 : (i+1)*16]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("SignAll disagrees with Sign for set %d", i)
			}
		}
	}
}

func TestEstimatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Estimate with mismatched lengths did not panic")
		}
	}()
	Estimate([]uint32{1, 2}, []uint32{1})
}

func BenchmarkSign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	set := randomSet(rng, 100, 100000)
	s := NewSigner(128, 1)
	sig := make([]uint32, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SignInto(set, sig)
	}
}

func BenchmarkEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := NewSigner(128, 1)
	x := s.Sign(randomSet(rng, 100, 100000))
	y := s.Sign(randomSet(rng, 100, 100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Estimate(x, y)
	}
}
