package verify

import (
	"cmp"
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
