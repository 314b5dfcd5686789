// Package verify provides exact similarity verification with early
// termination, result-pair bookkeeping, and the pre-candidate/candidate/
// result accounting reported in Table IV of the paper.
package verify

import (
	"sync/atomic"

	"repro/internal/intset"
)

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
type Counters struct {
	PreCandidates int64
	Candidates    int64
	Results       int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.PreCandidates += other.PreCandidates
	c.Candidates += other.Candidates
	c.Results += other.Results
}

// AtomicCounters accumulates pre-candidate/candidate counts from
// concurrent workers. Tasks batch counts locally and publish them with one
// Add per task, so the atomics stay off the hot path.
type AtomicCounters struct {
	pre  atomic.Int64
	cand atomic.Int64
}

// Add accumulates a task's local counts.
func (a *AtomicCounters) Add(pre, cand int64) {
	if pre != 0 {
		a.pre.Add(pre)
	}
	if cand != 0 {
		a.cand.Add(cand)
	}
}

// Counters returns the accumulated totals (Results is left for the caller,
// which knows the result sink).
func (a *AtomicCounters) Counters() Counters {
	return Counters{PreCandidates: a.pre.Load(), Candidates: a.cand.Load()}
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

// Verify computes whether J(sets[i], sets[j]) >= lambda exactly, using the
// equivalent overlap bound with an early-terminating merge.
func (v *Verifier) Verify(i, j uint32) bool {
	a, b := v.Sets[i], v.Sets[j]
	required := intset.JaccardOverlapBound(len(a), len(b), v.Lambda)
	_, ok := intset.IntersectSizeAtLeast(a, b, required)
	return ok
}

// SizeCompatible reports whether two sets of the given sizes can possibly
// reach the threshold: lambda*|a| <= |b| <= |a|/lambda (assuming |a|<=|b|
// gives J <= |a|/|b|).
func (v *Verifier) SizeCompatible(la, lb int) bool {
	if la > lb {
		la, lb = lb, la
	}
	return float64(la) >= v.Lambda*float64(lb)
}

// ResultSet collects result pairs with deduplication. Approximate joins
// can emit the same pair from multiple subproblems or repetitions; the
// set ensures each pair is reported once.
type ResultSet struct {
	pairs map[uint64]struct{}
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet {
	return &ResultSet{pairs: make(map[uint64]struct{})}
}

// Add inserts the pair (i, j); it returns true if the pair was new.
func (r *ResultSet) Add(i, j uint32) bool {
	k := MakePair(i, j).Key()
	if _, ok := r.pairs[k]; ok {
		return false
	}
	r.pairs[k] = struct{}{}
	return true
}

// Contains reports whether the pair is present.
func (r *ResultSet) Contains(i, j uint32) bool {
	_, ok := r.pairs[MakePair(i, j).Key()]
	return ok
}

// Len returns the number of pairs.
func (r *ResultSet) Len() int { return len(r.pairs) }

// Pairs returns the pairs in unspecified order.
func (r *ResultSet) Pairs() []Pair {
	out := make([]Pair, 0, len(r.pairs))
	for k := range r.pairs {
		out = append(out, PairFromKey(k))
	}
	return out
}
