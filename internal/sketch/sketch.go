// Package sketch implements the 1-bit minwise hashing sketches of Li and
// König (CACM 2011) used by CPSJoin for fast similarity estimation.
//
// A sketch of a set x is a vector of 64*W bits where bit i is the low bit
// of min_{j in x} h_i(j), the minimum of x under an independent hash
// function h_i from 32-bit tokens to 32-bit values: b-bit minwise hashing
// (Li and König, WWW 2010) at b = 1. For two sets with Jaccard similarity
// J, each bit position agrees independently with probability (1+J)/2, so
// the similarity can be estimated from the Hamming distance of two
// sketches — computed word by word with XOR and popcount, a handful of
// instructions total.
//
// Why the bits stay independent and agree with probability (1+J)/2: the
// functions h_i are drawn independently, so bit i depends on h_i alone.
// Under h_i, the two sets share their minimum with probability J (the
// least token of x ∪ y lies in x ∩ y), and then the bits agree. Otherwise
// the two minima are the hashes of two different tokens. Simple tabulation
// XORs one table entry per key byte, two different tokens differ in some
// byte, and the low bit of every entry is drawn independently of the 31
// bits above it, which decide which token is a minimum (bar a tie there, of
// probability about 2^-31). So the two low bits agree with probability
// 1/2, and the bit agrees with probability J + (1−J)/2 = (1+J)/2,
// independently across bits: exactly what NewFilter's binomial calibration
// assumes.
//
// The functions are simple tabulation (package tabhash): h_i is the low
// 32 bits of a Table32, four 256-entry tables, one per key byte, XORed.
// Maker holds them as one tabhash.Low32, the tables transposed: for each
// key byte position and byte value, one contiguous row holding that entry
// of all 64*W functions (4 x 256 rows, 2 MB at W = 8). A sketch is then a
// fold of the set's tokens into 64*W running minima, on AVX-512 where the
// CPU has it — 256 minima at a time in vector registers, their low bits
// packed at the end — and in Go elsewhere, the same bits either way (the
// function-at-a-time loop is kept as the reference in the tests).
// minhash.Signer signs on the same kind of family, with 64-bit values.
package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tabhash"
)

// Maker builds 1-bit minwise sketches of a fixed width. It is safe for
// concurrent use.
type Maker struct {
	words int
	// fam holds the n = 64*words hash functions, transposed: hashing a
	// token with all of them XORs four contiguous rows.
	fam *tabhash.Low32
}

// NewMaker returns a Maker producing sketches of the given number of 64-bit
// words (the paper uses words = 8, i.e. 512 bits). It panics if words <= 0.
func NewMaker(words int, seed uint64) *Maker {
	if words <= 0 {
		panic(fmt.Sprintf("sketch: invalid word count %d", words))
	}
	return &Maker{words: words, fam: tabhash.NewLow32(64*words, seed^0xa5a5a5a5a5a5a5a5, 2)}
}

// Words returns the sketch width in 64-bit words.
func (m *Maker) Words() int { return m.words }

// Sketch computes the sketch of set. It panics on an empty set.
func (m *Maker) Sketch(set []uint32) []uint64 {
	out := make([]uint64, m.words)
	m.SketchInto(set, out)
	return out
}

// SketchInto computes the sketch of set into out, which must have length
// Words(). It allocates nothing.
func (m *Maker) SketchInto(set []uint32, out []uint64) {
	if len(set) == 0 {
		panic("sketch: cannot sketch an empty set")
	}
	if len(out) != m.words {
		panic(fmt.Sprintf("sketch: out length %d, want %d", len(out), m.words))
	}
	m.fam.FoldBits(set, out)
}

// SketchAll sketches every set into a single flattened slice of length
// len(sets)*Words(); the sketch of set i occupies [i*W, (i+1)*W).
func (m *Maker) SketchAll(sets [][]uint32) []uint64 {
	flat := make([]uint64, len(sets)*m.words)
	for i, set := range sets {
		m.SketchInto(set, flat[i*m.words:(i+1)*m.words])
	}
	return flat
}

// Hamming returns the number of differing bits between two sketches.
func Hamming(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// AgreeBits returns the number of agreeing bits between two equal-length
// sketches.
func AgreeBits(a, b []uint64) int {
	return 64*len(a) - Hamming(a, b)
}

// EstimateJaccard estimates the Jaccard similarity of the sets underlying
// two sketches: if a fraction p of the bits agree, J ≈ 2p - 1 (clamped to
// [0, 1]).
func EstimateJaccard(a, b []uint64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("sketch: length mismatch")
	}
	return estimate(len(a), Hamming(a, b))
}

// estimate is EstimateJaccard for sketches of the given width d bits apart.
func estimate(words, d int) float64 {
	p := float64(64*words-d) / float64(64*words)
	j := 2*p - 1
	if j < 0 {
		return 0
	}
	return j
}

// HammingBelow returns the bound b for which a Hamming distance d < b
// between two sketches of the given width holds exactly when their
// EstimateJaccard is above j, for every d in [0, 64·words]: a float test on
// the estimate as one integer compare on the distance. The estimate falls
// with d, so b is the first distance at which it no longer exceeds j.
func HammingBelow(words int, j float64) int {
	d := 0
	for d <= 64*words && estimate(words, d) > j {
		d++
	}
	return d
}

// Filter is a precomputed accept/reject rule: a candidate pair passes when
// its sketches agree in at least MinAgree bits. It is calibrated so that a
// pair with true Jaccard similarity >= Lambda is rejected with probability
// at most Delta (the sketch false-negative probability of Section V-A.2).
type Filter struct {
	Words    int
	Lambda   float64
	Delta    float64
	MinAgree int
}

// NewFilter computes the agreement threshold for sketches of the given
// width. For a pair with J >= lambda each bit agrees independently with
// probability >= (1+lambda)/2; MinAgree is the largest m such that
// Pr[Binomial(bits, (1+lambda)/2) < m] <= delta.
func NewFilter(words int, lambda, delta float64) *Filter {
	if words <= 0 {
		panic("sketch: invalid word count")
	}
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("sketch: lambda %v out of (0,1)", lambda))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("sketch: delta %v out of (0,1)", delta))
	}
	n := 64 * words
	p := (1 + lambda) / 2
	// Find the largest m with BinomCDF(m-1; n, p) <= delta. CDF is
	// increasing in m, so scan from below; n <= a few thousand, so the
	// direct scan over the log-space pmf is exact and cheap.
	cdf := 0.0
	minAgree := 0
	for k := 0; k <= n; k++ {
		cdf += math.Exp(logBinomPMF(n, k, p))
		if cdf > delta {
			minAgree = k
			break
		}
	}
	return &Filter{Words: words, Lambda: lambda, Delta: delta, MinAgree: minAgree}
}

// Accept reports whether the pair with the given sketches passes the filter.
func (f *Filter) Accept(a, b []uint64) bool {
	return AgreeBits(a, b) >= f.MinAgree
}

// logBinomPMF returns log Pr[Binomial(n, p) = k].
func logBinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
}

// BinomTail returns Pr[Binomial(n, p) < m], the exact lower tail that
// NewFilter's calibration sums term by term. Only tests call it, to check
// that calibration; BayesLSH-lite prunes with a Hoeffding bound instead.
func BinomTail(n, m int, p float64) float64 {
	cdf := 0.0
	for k := 0; k < m; k++ {
		cdf += math.Exp(logBinomPMF(n, k, p))
	}
	return cdf
}
