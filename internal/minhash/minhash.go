// Package minhash implements minwise hashing signatures.
//
// A MinHash function h is sampled by drawing a random tabulation hash
// g: [d] -> [2^64] and letting h(x) = argmin_{j in x} g(j). For two sets
// Pr[h(x) = h(y)] = J(x, y), so the number of agreeing positions in two
// t-dimensional signatures is a binomially concentrated estimator of the
// Jaccard similarity.
//
// A signature is computed token by token on one tabhash.Family32, whose
// ArgMins folds each token's hash values under all t functions into the
// running minima and their arg-min tokens: on AVX-512 where the CPU has it,
// 128 functions per pass over the set with the minima in registers, in Go
// elsewhere, the same signature either way.
//
// The randomized embedding of Section II-A of the CPSJoin paper, which
// turns any LSHable similarity join into a set similarity join, is
// ssjoin.Embed, over any hash family.
package minhash

import (
	"fmt"

	"repro/internal/tabhash"
)

// Signer computes t-dimensional MinHash signatures. Function i is the
// simple tabulation hash tabhash.NewTable32(Mix64(seed + i)); the t of
// them are held as one tabhash.Family32, transposed, so a signature is
// computed token by token: the family's ArgMins XORs each token's four
// rows into all t hash values at once and folds them into the running
// minima. It is safe for concurrent use.
type Signer struct {
	t   int
	fam *tabhash.Family32
}

// NewSigner returns a Signer with t independent MinHash functions derived
// from seed. It panics if t <= 0.
func NewSigner(t int, seed uint64) *Signer {
	if t <= 0 {
		panic(fmt.Sprintf("minhash: invalid signature length %d", t))
	}
	return &Signer{t: t, fam: tabhash.NewFamily32(t, seed, 1)}
}

// T returns the signature length.
func (s *Signer) T() int { return s.t }

// Sign computes the signature of set: for each of the t hash functions, the
// token of set minimizing the hash value. The result has length t. Sign
// panics on an empty set (a MinHash of nothing is undefined).
func (s *Signer) Sign(set []uint32) []uint32 {
	sig := make([]uint32, s.t)
	s.SignInto(set, sig)
	return sig
}

// SignInto computes the signature of set into sig, which must have length t.
// It allocates nothing.
func (s *Signer) SignInto(set []uint32, sig []uint32) {
	if len(set) == 0 {
		panic("minhash: cannot sign an empty set")
	}
	if len(sig) != s.t {
		panic(fmt.Sprintf("minhash: sig length %d, want %d", len(sig), s.t))
	}
	s.fam.ArgMins(set, sig)
}

// SignAll computes the signatures of every set as one position-major
// matrix of length len(sets)*t: position p of set i is at [p*len(sets)+i].
// A position's values over the collection are then one contiguous column,
// which is what a Chosen Path split and an LSH bucket key read for a run of
// ascending ids; the whole matrix is one slice header.
func (s *Signer) SignAll(sets [][]uint32) []uint32 {
	sigs := make([]uint32, len(sets)*s.t)
	s.SignColumns(sets, 0, len(sets), sigs)
	return sigs
}

// SignColumns signs sets[lo:hi] into sigs, the position-major matrix of all
// of sets (see SignAll). Calls on disjoint ranges write disjoint elements,
// so they may run concurrently. Each set is signed into a row buffer, whose
// values are then scattered into the t columns.
func (s *Signer) SignColumns(sets [][]uint32, lo, hi int, sigs []uint32) {
	n := len(sets)
	if len(sigs) != n*s.t {
		panic(fmt.Sprintf("minhash: matrix length %d, want %d", len(sigs), n*s.t))
	}
	row := make([]uint32, s.t)
	for i := lo; i < hi; i++ {
		s.SignInto(sets[i], row)
		for p, v := range row {
			sigs[p*n+i] = v
		}
	}
}

// Estimate returns the fraction of agreeing positions of two signatures,
// an unbiased estimator of the Jaccard similarity of the underlying sets.
func Estimate(a, b []uint32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("minhash: signature length mismatch")
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a))
}
