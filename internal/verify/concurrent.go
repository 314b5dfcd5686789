package verify

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ResultSet collects result pairs with deduplication: approximate joins
// emit the same pair from several subproblems or repetitions, and each is
// reported once. It is lock-striped and safe for concurrent use by the
// workers of a join; pairs are routed to shards by a mixed hash of the
// packed pair key, so contention spreads evenly no matter how the input ids
// cluster. A join on one worker uses the same set: the pipeline looks up
// only pairs that passed the size and sketch filters, a few thousand against
// millions of pre-candidates, so an uncontended lock per lookup is not
// measurable.
//
// The final pair *set* is independent of interleaving: Add is idempotent
// and the shard map dedups, which is what lets the joins promise identical
// result sets across worker counts.
type ResultSet struct {
	shards []resultShard
	mask   uint64
	n      atomic.Int64
}

type resultShard struct {
	mu sync.Mutex
	m  map[uint64]struct{}
	_  [48]byte // pad to 64 bytes: one shard lock per cache line
}

// NewResultSet returns an empty result set for a join run by the given
// number of workers: striped eight times wider than that, rounded up to a
// power of two.
func NewResultSet(workers int) *ResultSet {
	n := 8
	for n < 8*workers && n < 1<<16 {
		n <<= 1
	}
	r := &ResultSet{shards: make([]resultShard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]struct{})
	}
	return r
}

// shard routes a packed pair key to its stripe. The multiply-xorshift mix
// decorrelates the stripe index from the low bits of B (which would
// otherwise concentrate consecutive ids on few stripes).
func (r *ResultSet) shard(key uint64) *resultShard {
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return &r.shards[h&r.mask]
}

// Add inserts the pair (i, j); it returns true if the pair was new.
func (r *ResultSet) Add(i, j uint32) bool {
	key := MakePair(i, j).Key()
	s := r.shard(key)
	s.mu.Lock()
	if _, ok := s.m[key]; ok {
		s.mu.Unlock()
		return false
	}
	s.m[key] = struct{}{}
	s.mu.Unlock()
	r.n.Add(1)
	return true
}

// Contains reports whether the pair is present.
func (r *ResultSet) Contains(i, j uint32) bool {
	key := MakePair(i, j).Key()
	s := r.shard(key)
	s.mu.Lock()
	_, ok := s.m[key]
	s.mu.Unlock()
	return ok
}

// Len returns the number of distinct pairs added so far.
func (r *ResultSet) Len() int { return int(r.n.Load()) }

// Pairs returns the pairs sorted by A, then B, not in map order, so a join's
// output is a function of its input and seed. It must not race with
// concurrent Adds if a consistent snapshot is required; the joins call it
// only after the pool has quiesced.
func (r *ResultSet) Pairs() []Pair {
	out := make([]Pair, 0, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for k := range s.m {
			out = append(out, PairFromKey(k))
		}
		s.mu.Unlock()
	}
	SortPairs(out)
	return out
}

// SortPairs sorts pairs by A, then B: the one order every join returns its
// pairs in, whatever the worker count or the order they were found in.
func SortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int { return cmp.Compare(a.Key(), b.Key()) })
}

// RecallTracker gives the workers of a parallel join a shared atomic view
// of how much of a known ground truth they have accumulated, fixing the
// weakness of the earlier per-worker StopAtRecall accounting: each worker
// saw only its own results, so the ensemble kept running long after the
// union had reached the target.
//
// Workers report every newly added pair through Hit; once the hit count
// reaches ceil(target * |truth|), Reached flips permanently and all
// workers wind down. The check is O(1) per added pair — no rescans of the
// truth set.
type RecallTracker struct {
	truth map[uint64]struct{}
	need  int64
	hits  atomic.Int64
	done  atomic.Bool
}

// NewRecallTracker returns a tracker for the given ground truth and recall
// target, or nil (a no-op tracker) when the stopping rule is disabled.
// The nil receiver is valid for all methods.
func NewRecallTracker(truth []Pair, target float64) *RecallTracker {
	if target <= 0 || truth == nil {
		return nil
	}
	t := &RecallTracker{truth: make(map[uint64]struct{}, len(truth))}
	for _, p := range truth {
		t.truth[p.Key()] = struct{}{}
	}
	t.need = int64(math.Ceil(target * float64(len(t.truth))))
	if t.need <= 0 {
		// Empty ground truth: the target is vacuously met, so the join
		// stops before doing any work at all.
		t.done.Store(true)
	}
	return t
}

// Hit records a newly reported pair; call it only for pairs that were
// actually added (Add returned true), so each truth pair counts once.
func (t *RecallTracker) Hit(i, j uint32) {
	if t == nil || t.done.Load() {
		return
	}
	if _, ok := t.truth[MakePair(i, j).Key()]; !ok {
		return
	}
	if t.hits.Add(1) >= t.need {
		t.done.Store(true)
	}
}

// Reached reports whether the recall target has been met.
func (t *RecallTracker) Reached() bool {
	return t != nil && t.done.Load()
}
