package datagen

import (
	"math"
	"slices"

	"repro/internal/tabhash"
)

// LedgerShape returns one of the two collection shapes of the perf ledger
// (benchmark/gen.go), built on nothing but the repository's own PRNG: the
// golden tests of the join packages pin pair digests and counters to its
// output, so this function is frozen — a change here moves every one of
// them. Flat is the paper's UNIFORM005 shape — Poisson(10) sizes over 209
// equally likely tokens, no token rare, every node full of size-compatible
// low-similarity pairs — and skew is Zipf(1.0) tokens over a universe of 2n
// with log-normal sizes (median 5, σ 1.3, clipped at 2000), where the size
// filter does most of the rejecting. Every tenth set is a mutated copy of
// its predecessor, so each threshold has results.
func LedgerShape(skew bool, n int, seed uint64) [][]uint32 {
	r := tabhash.NewSplitMix64(seed)
	size := func() int { // Knuth's Poisson(10)
		k, p := 0, r.Float64()
		for limit := math.Exp(-10); p > limit; k++ {
			p *= r.Float64()
		}
		return max(2, k)
	}
	token := func() uint32 { return uint32(r.Intn(209)) }
	if skew {
		cdf := make([]float64, 2*n)
		sum := 0.0
		for i := range cdf {
			sum += 1 / float64(i+1)
			cdf[i] = sum
		}
		size = func() int {
			u := max(r.Float64(), math.SmallestNonzeroFloat64)
			z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.Float64())
			return min(2000, max(2, int(math.Round(5*math.Exp(1.3*z)))))
		}
		token = func() uint32 {
			i, _ := slices.BinarySearch(cdf, r.Float64()*sum)
			return uint32(min(i, len(cdf)-1))
		}
	}
	sets := make([][]uint32, 0, n)
	for len(sets) < n {
		var set []uint32
		if i := len(sets); i%10 == 9 {
			// A near-duplicate: drop every k-th token of the previous set
			// (k from 2 to 11, so similarities from about 0.5 to 0.9).
			k := 2 + (i/10)%10
			for pos, tok := range sets[i-1] {
				if pos%k != k-1 {
					set = append(set, tok)
				}
			}
		}
		for want := size(); len(set) < 2 || (len(sets)%10 != 9 && len(set) < want); {
			if tok := token(); !slices.Contains(set, tok) {
				set = append(set, tok)
			}
		}
		slices.Sort(set)
		sets = append(sets, set)
	}
	return sets
}
