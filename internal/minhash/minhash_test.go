package minhash

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/intset"
	"repro/internal/tabhash"
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

// TestSignAllLayout: SignAll is position-major, position p of set i at
// [p*n+i], and SignColumns over any two ranges that cover the sets, signed
// in either order, writes the same matrix.
func TestSignAllLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sets := make([][]uint32, 37)
	for i := range sets {
		sets[i] = randomSet(rng, 2+rng.Intn(20), 300)
	}
	n := len(sets)
	s := NewSigner(16, 7)
	flat := s.SignAll(sets)
	if len(flat) != n*16 {
		t.Fatalf("flat length %d", len(flat))
	}
	for i, set := range sets {
		for p, want := range s.Sign(set) {
			if got := flat[p*n+i]; got != want {
				t.Fatalf("SignAll disagrees with Sign for set %d at position %d: %d, want %d", i, p, got, want)
			}
		}
	}
	for _, cut := range []int{1, 15, 16, 17, 20, 36} {
		split := make([]uint32, n*16)
		s.SignColumns(sets, cut, n, split)
		s.SignColumns(sets, 0, cut, split)
		if !slices.Equal(split, flat) {
			t.Errorf("SignColumns over [0,%d) and [%d,%d) differs from SignAll", cut, cut, n)
		}
	}
}

// refSigner is the one-function-at-a-time loop the token-major kernel
// replaced, kept as the reference it must agree with bit for bit: function
// i is its own tabhash.Table32, and its arg-min keeps the earlier token on a
// tie.
type refSigner []*tabhash.Table32

func newRefSigner(t int, seed uint64) refSigner {
	r := make(refSigner, t)
	for i := range r {
		r[i] = tabhash.NewTable32(tabhash.Mix64(seed + uint64(i)))
	}
	return r
}

func (r refSigner) sign(set []uint32) []uint32 {
	sig := make([]uint32, len(r))
	for i, table := range r {
		best := set[0]
		bestHash := table.Hash(set[0])
		for _, tok := range set[1:] {
			if h := table.Hash(tok); h < bestHash {
				bestHash = h
				best = tok
			}
		}
		sig[i] = best
	}
	return sig
}

// eachFoldPath runs f as subtest "go" on tabhash's Go fold and as subtest
// "avx512" on the fold picked at start-up, which it skips, with a message,
// where this CPU lacks AVX-512.
func eachFoldPath(t *testing.T, f func(t *testing.T)) {
	vector := tabhash.WithGoFold(func() { t.Run("go", f) })
	if !vector {
		t.Run("go", f)
	}
	t.Run("avx512", func(t *testing.T) {
		if !vector {
			t.Skip("this CPU has no AVX-512: the fold runs its Go loops alone")
		}
		f(t)
	})
}

// TestSignMatchesReference: Sign, SignInto and SignAll yield the reference
// loop's signatures bit for bit, on each fold path this CPU has, at
// signature lengths below, at and above one 128-function block of the
// AVX-512 kernel (below it, and past the last whole block, the Go loop
// runs), and not a multiple of eight, on sets of 1 to 2 000 tokens over universes from 2^8
// to 2^32 (tokens at and above 2^24, so that all four key bytes vary), and
// SignInto allocates nothing.
func TestSignMatchesReference(t *testing.T) {
	eachFoldPath(t, checkSignMatchesReference)
}

func checkSignMatchesReference(t *testing.T) {
	rng := tabhash.NewSplitMix64(0x519)
	sets := make([][]uint32, 0, 40)
	for i := 0; i < cap(sets); i++ {
		size := 1 + rng.Intn(60)
		switch i % 8 {
		case 0:
			size = 2000
		case 1:
			size = 1
		}
		shift := uint(rng.Intn(25)) // universes from 2^8 to 2^32
		set := make([]uint32, size)
		for j := range set {
			set[j] = uint32(rng.Next()) >> shift
			if i%4 == 3 {
				set[j] |= 1 << 24
			}
		}
		sets = append(sets, intset.Normalize(set))
	}
	for _, n := range []int{1, 7, 8, 9, 64, 128, 300, 512} {
		seed := rng.Next()
		s, ref := NewSigner(n, seed), newRefSigner(n, seed)
		all := s.SignAll(sets)
		into := make([]uint32, n)
		for i, set := range sets {
			want := ref.sign(set)
			s.SignInto(set, into)
			got := s.Sign(set)
			for j := range want {
				if got[j] != want[j] || into[j] != want[j] || all[j*len(sets)+i] != want[j] {
					t.Fatalf("t=%d seed=%#x set %d (%d tokens) position %d: Sign %d SignInto %d SignAll %d, reference %d",
						n, seed, i, len(set), j, got[j], into[j], all[j*len(sets)+i], want[j])
				}
			}
		}
		if n >= 128 {
			if allocs := testing.AllocsPerRun(20, func() { s.SignInto(sets[0], into) }); allocs != 0 {
				t.Errorf("t=%d: SignInto allocates %v times per call, want 0", n, allocs)
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

// BenchmarkSign measures SignInto at t = 128 on the shapes of the perf
// ledger's join workloads (benchmark/gen.go), once per fold path this CPU
// has (go, and avx512 where the CPU has it), as sketch's
// BenchmarkSketchInto does: flat is join_flat's sets, skew is join_skew's
// size and token distributions, large is one set from the tail of skew.
// SignInto must not allocate: it sits in prep's and cpindex's per-set loops
// and on every cpindex query.
func BenchmarkSign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	flat := make([][]uint32, 4096)
	for i := range flat {
		flat[i] = randomSet(rng, 10, 209)
	}
	zipf := rand.NewZipf(rng, 1.01, 1, 80000-1)
	skew := make([][]uint32, 4096)
	for i := range skew {
		size := min(2000, max(2, int(math.Round(5*math.Exp(1.3*rng.NormFloat64())))))
		set := make([]uint32, size)
		for j := range set {
			set[j] = uint32(zipf.Uint64())
		}
		skew[i] = intset.Normalize(set)
	}
	shapes := []struct {
		name string
		sets [][]uint32
	}{
		{"flat", flat},
		{"skew", skew},
		{"large", [][]uint32{randomSet(rng, 1500, 80000)}},
	}
	run := func(path string) {
		for _, bc := range shapes {
			b.Run(path+"/"+bc.name, func(b *testing.B) {
				s := NewSigner(128, 42)
				sig := make([]uint32, s.T())
				tokens := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					set := bc.sets[i%len(bc.sets)]
					s.SignInto(set, sig)
					tokens += len(set)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens), "ns/token")
				if allocs := testing.AllocsPerRun(100, func() { s.SignInto(bc.sets[0], sig) }); allocs != 0 {
					b.Errorf("SignInto allocates %v times per call, want 0", allocs)
				}
			})
		}
	}
	if tabhash.WithGoFold(func() { run("go") }) {
		run("avx512")
	} else {
		run("go")
	}
}

// BenchmarkNewSigner measures building a t = 128 signer against building
// the 128 tabhash.Table32 of the reference loop: a cold restore opens one
// signer per shard, so the transposed family must be no slower to draw.
func BenchmarkNewSigner(b *testing.B) {
	b.Run("family", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewSigner(128, uint64(i))
		}
	})
	b.Run("tables", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newRefSigner(128, uint64(i))
		}
	})
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
