// KMV cardinality sketches (Bar-Yossef et al., RANDOM 2002; Beyer et
// al., SIGMOD 2007): keep the k smallest distinct hash values seen. If
// the k-th smallest of n distinct uniform hashes is v, then v/2^64 ≈
// k/n, so n̂ = (k-1)·2^64/v is (almost) unbiased with relative standard
// error ≈ 1/sqrt(k-2). LSH Ensemble (Zhu et al., VLDB 2016) uses these
// sketches to estimate domain cardinalities when exact sizes are too
// expensive to maintain; the containment index uses them to summarize
// the distinct-token universe of each cardinality partition.

package sketch

import (
	"fmt"
	"sort"

	"repro/internal/tabhash"
)

// KMV is a k-minimum-values cardinality sketch over uint32 tokens. The
// zero value is not usable; construct with NewKMV. Adding the same
// token twice never changes the sketch, so Estimate counts *distinct*
// tokens. Not safe for concurrent use.
type KMV struct {
	k    int
	hash *tabhash.Table32
	vals []uint64 // the k smallest distinct hash values, sorted ascending
}

// NewKMV returns a sketch keeping the k smallest hash values, hashing
// tokens with a tabulation hash derived from seed. It panics if k < 2
// (the estimator needs at least two retained values to be defined).
func NewKMV(k int, seed uint64) *KMV {
	if k < 2 {
		panic(fmt.Sprintf("sketch: KMV size %d, need >= 2", k))
	}
	return &KMV{
		k:    k,
		hash: tabhash.NewTable32(tabhash.Mix64(seed ^ 0x6b6d762d6b6d762d)), // "kmv-kmv-"
		vals: make([]uint64, 0, k),
	}
}

// K returns the sketch size.
func (s *KMV) K() int { return s.k }

// Add folds one token into the sketch.
func (s *KMV) Add(tok uint32) {
	h := s.hash.Hash(tok)
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= h })
	if i < len(s.vals) && s.vals[i] == h {
		return // duplicate token (or full hash collision): idempotent
	}
	if len(s.vals) == s.k {
		if i == s.k {
			return // larger than the current k-th minimum
		}
		s.vals = s.vals[:s.k-1] // drop the largest to make room
	}
	s.vals = append(s.vals, 0)
	copy(s.vals[i+1:], s.vals[i:])
	s.vals[i] = h
}

// AddSet folds every token of set into the sketch.
func (s *KMV) AddSet(set []uint32) {
	for _, tok := range set {
		s.Add(tok)
	}
}

// Estimate returns the estimated number of distinct tokens added. While
// fewer than k distinct hash values have been seen the count is exact;
// beyond that it is the (k-1)·2^64/v_k estimator with relative standard
// error ≈ 1/sqrt(k-2).
func (s *KMV) Estimate() float64 {
	if len(s.vals) < s.k {
		return float64(len(s.vals))
	}
	vk := s.vals[s.k-1]
	// v_k as a fraction of the hash space; vk is never 0 here in
	// practice, but guard the division anyway.
	frac := float64(vk) / float64(1<<63) / 2
	if frac <= 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / frac
}
