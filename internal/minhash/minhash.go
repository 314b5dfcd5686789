// Package minhash implements minwise hashing signatures.
//
// A MinHash function h is sampled by drawing a random tabulation hash
// g: [d] -> [2^64] and letting h(x) = argmin_{j in x} g(j). For two sets
// Pr[h(x) = h(y)] = J(x, y), so the number of agreeing positions in two
// t-dimensional signatures is a binomially concentrated estimator of the
// Jaccard similarity.
//
// The randomized embedding of Section II-A of the CPSJoin paper, which
// turns any LSHable similarity join into a set similarity join, is
// ssjoin.Embed, over any hash family.
package minhash

import (
	"fmt"

	"repro/internal/tabhash"
)

// Signer computes t-dimensional MinHash signatures.
type Signer struct {
	t      int
	tables []*tabhash.Table32
}

// NewSigner returns a Signer with t independent MinHash functions derived
// from seed. It panics if t <= 0.
func NewSigner(t int, seed uint64) *Signer {
	if t <= 0 {
		panic(fmt.Sprintf("minhash: invalid signature length %d", t))
	}
	s := &Signer{t: t, tables: make([]*tabhash.Table32, t)}
	for i := range s.tables {
		s.tables[i] = tabhash.NewTable32(tabhash.Mix64(seed + uint64(i)))
	}
	return s
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
func (s *Signer) SignInto(set []uint32, sig []uint32) {
	if len(set) == 0 {
		panic("minhash: cannot sign an empty set")
	}
	if len(sig) != s.t {
		panic(fmt.Sprintf("minhash: sig length %d, want %d", len(sig), s.t))
	}
	for i, table := range s.tables {
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
}

// SignAll computes signatures for every set, returned as a single flattened
// slice of length len(sets)*t; the signature of set i occupies
// [i*t, (i+1)*t). A flattened layout keeps the per-record overhead at one
// slice header for the whole collection and gives sequential memory access
// in the join inner loops.
func (s *Signer) SignAll(sets [][]uint32) []uint32 {
	flat := make([]uint32, len(sets)*s.t)
	for i, set := range sets {
		s.SignInto(set, flat[i*s.t:(i+1)*s.t])
	}
	return flat
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
