// Package verify is what every join ends in: exact similarity verification
// with early termination (Verifier), the brute-force candidate pipeline the
// approximate joins share (Pipeline: size filter, sketch filter — or
// BayesLSH-lite's sequential sketch test, a refinement of it — dedup,
// verification — BRUTEFORCEPAIRS of the paper's Algorithms 2 and 3), the one
// result set (ResultSet, lock-striped, the same type at every worker count),
// recall tracking against a known ground truth (RecallTracker), the one
// repetition loop of the approximate joins with its one stop rule (Repeat),
// and the pre-candidate/candidate/result accounting reported in Table IV
// (Counters).
package verify

import "repro/internal/intset"

// Pair is an unordered result pair of set indices, normalized so A < B.
type Pair struct {
	A, B uint32
}

// MakePair returns the normalized pair for indices i and j.
func MakePair(i, j uint32) Pair {
	if i > j {
		i, j = j, i
	}
	return Pair{A: i, B: j}
}

// Key packs the pair into a single uint64 map key.
func (p Pair) Key() uint64 {
	return uint64(p.A)<<32 | uint64(p.B)
}

// PairFromKey inverts Key.
func PairFromKey(k uint64) Pair {
	return Pair{A: uint32(k >> 32), B: uint32(k)}
}

// Counters tracks the candidate-generation statistics of a join run, in
// the terms of Table IV:
//
//   - PreCandidates: every pair the algorithm looked at (inverted-list hits
//     for AllPairs; pairs considered by BRUTEFORCEPAIRS/POINT for CPSJoin).
//   - Candidates: pairs that survived the cheap checks (size bounds, 1-bit
//     sketch filter) and were passed to exact verification.
//   - Results: verified pairs with similarity >= lambda.
//
// Repetitions is how many repetitions an approximate join ran (Repeat); 0
// for the exact joins.
type Counters struct {
	PreCandidates int64
	Candidates    int64
	Results       int64
	Repetitions   int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.PreCandidates += other.PreCandidates
	c.Candidates += other.Candidates
	c.Results += other.Results
	c.Repetitions += other.Repetitions
}

// Verifier performs exact Jaccard verification over a fixed collection.
type Verifier struct {
	Sets   [][]uint32
	Lambda float64
}

// NewVerifier returns a Verifier for the collection at threshold lambda.
func NewVerifier(sets [][]uint32, lambda float64) *Verifier {
	return &Verifier{Sets: sets, Lambda: lambda}
}

// Verify reports whether J(sets[i], sets[j]) >= lambda exactly, by
// intset.JaccardAtLeast's early-terminating merge.
func (v *Verifier) Verify(i, j uint32) bool {
	_, ok := intset.JaccardAtLeast(v.Sets[i], v.Sets[j], v.Lambda)
	return ok
}
