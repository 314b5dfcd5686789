// Package sketch implements the 1-bit minwise hashing sketches of Li and
// König (CACM 2011) used by CPSJoin for fast similarity estimation.
//
// A sketch of a set x is a vector of 64*W bits where bit i is b_i(h_i(x)):
// an independent MinHash h_i of x, hashed down to one bit by an independent
// hash b_i. For two sets with Jaccard similarity J, each bit position
// agrees independently with probability (1+J)/2, so the similarity can be
// estimated from the Hamming distance of two sketches — computed word by
// word with XOR and popcount, a handful of instructions total.
//
// Both hash families are simple tabulation (package tabhash): h_i is a
// Table32 — four 256-entry tables, one per key byte, XORed — and b_i the
// low bit of a Table64 over the eight bytes of the minimum. Evaluated one
// function at a time that is 64*W functions with 8 KB + 16 KB of tables
// each (12 MB at W = 8), every lookup of a small set a cache miss. Maker
// holds the value hashes as one tabhash.Family32 instead, the same tables
// transposed: for each key byte position and byte value, one contiguous
// row holding that entry of all 64*W value hashes (4 x 256 rows, 4 MB at
// W = 8); of the bit hashes it keeps only the bits that are used, packed 64
// functions to a word (128 KB). A sketch is then computed token by token —
// the family's FoldMin XORs four rows and takes the element-wise minimum
// with the running minima, on AVX-512 where the CPU has it and in Go
// elsewhere — followed by one pass of bit lookups, in Go. The tables hold
// the same draws of the same seeded streams, so this is the same hash
// family evaluated in a different order: every sketch is bit for bit what
// the function-at-a-time loop yields (kept as the reference in the tests),
// at about 4.1 MB instead of 12 MB of tables. minhash.Signer signs on the
// same kind of family.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/tabhash"
)

// Maker builds 1-bit minwise sketches of a fixed width. It is safe for
// concurrent use.
type Maker struct {
	words int
	// vals holds the n = 64*words value hashes, transposed: hashing a token
	// with all of them XORs four contiguous rows.
	vals *tabhash.Family32
	// bitrows holds the low bit of every bit-hash table entry: bit b of
	// bitrows[(w*8+c)*256+v] is that of entry v of table c of function
	// w*64+b. The 8*256 words one sketch word needs are contiguous.
	bitrows []uint64
	// mins pools the running-minimum buffers of SketchInto.
	mins sync.Pool
}

// NewMaker returns a Maker producing sketches of the given number of 64-bit
// words (the paper uses words = 8, i.e. 512 bits). It panics if words <= 0.
func NewMaker(words int, seed uint64) *Maker {
	if words <= 0 {
		panic(fmt.Sprintf("sketch: invalid word count %d", words))
	}
	nbits := 64 * words
	m := &Maker{
		words:   words,
		vals:    tabhash.NewFamily32(nbits, seed^0xa5a5a5a5a5a5a5a5, 2),
		bitrows: make([]uint64, words*8*256),
	}
	m.mins.New = func() any {
		buf := make([]uint64, nbits)
		return &buf
	}
	// Bit hash i draws its tables from the stream, and in the order, that
	// tabhash.NewTable64 does; only its low bits are stored.
	for i := 0; i < nbits; i++ {
		rng := tabhash.NewSplitMix64(tabhash.Mix64((seed ^ 0x5a5a5a5a5a5a5a5a) + uint64(i)*2 + 1))
		tab := m.bitrows[i/64*8*256:][:8*256]
		for j := range tab {
			tab[j] |= (rng.Next() & 1) << (i % 64)
		}
	}
	return m
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
// Words().
func (m *Maker) SketchInto(set []uint32, out []uint64) {
	if len(set) == 0 {
		panic("sketch: cannot sketch an empty set")
	}
	if len(out) != m.words {
		panic(fmt.Sprintf("sketch: out length %d, want %d", len(out), m.words))
	}
	buf := m.mins.Get().(*[]uint64)
	defer m.mins.Put(buf)
	mins := *buf

	// Token-major: each token's hash values under all n functions at once
	// are folded into the running minima.
	for i := range mins {
		mins[i] = math.MaxUint64
	}
	for _, tok := range set {
		m.vals.FoldMin(tok, mins)
	}
	// Bit b of sketch word w is the bit hash of minimum w*64+b: the XOR of
	// its eight byte lookups, of which only bit b is kept.
	for w := range out {
		tab := m.bitrows[w*8*256:][:8*256]
		var word uint64
		for b, x := range mins[w*64:][:64] {
			fold := tab[byte(x)] ^
				tab[1<<8|int(byte(x>>8))] ^
				tab[2<<8|int(byte(x>>16))] ^
				tab[3<<8|int(byte(x>>24))] ^
				tab[4<<8|int(byte(x>>32))] ^
				tab[5<<8|int(byte(x>>40))] ^
				tab[6<<8|int(byte(x>>48))] ^
				tab[7<<8|int(byte(x>>56))]
			word |= fold & (1 << b)
		}
		out[w] = word
	}
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
