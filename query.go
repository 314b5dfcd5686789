package ssjoin

import (
	"fmt"
	"sort"

	"repro/internal/intset"
	"repro/internal/shard"
)

// QueryMode selects the semantics of a Query: what "match" means and
// what the threshold is measured against.
type QueryMode string

const (
	// ModeSimilarity matches indexed sets by Jaccard similarity
	// J(q, x) = |q ∩ x| / |q ∪ x| — the CPSJoin workload the index is
	// built for. The index's build threshold λ is the floor; a Query
	// threshold may narrow results further but never below λ.
	ModeSimilarity QueryMode = "similarity"
	// ModeContainment matches indexed sets by Jaccard containment
	// C(q, x) = |q ∩ x| / |q| — "find indexed sets that contain most of
	// my query", the domain-discovery workload of LSH Ensemble (Zhu et
	// al., VLDB 2016). The threshold is per query, anywhere in (0,1].
	ModeContainment QueryMode = "containment"
)

// Query is one search request against a ShardedIndex — the single
// request shape of the query-mode API.
type Query struct {
	// Set is the query set; it is normalized (sorted, deduplicated) on
	// entry, so callers may pass raw token ids.
	Set []uint32
	// Mode selects the search semantics; the zero value means
	// ModeSimilarity.
	Mode QueryMode
	// Threshold is the match floor. In similarity mode, zero means the
	// index's build threshold λ, and explicit values must lie in [λ, 1] —
	// the index cannot see below the threshold it was built for. In
	// containment mode it is required, in (0,1].
	Threshold float64
	// All requests every match instead of the single best one.
	// Containment queries always return every match, so All is implied
	// there.
	All bool
	// Limit, when positive, re-ranks the matches by score (ties broken
	// toward the lower id) and keeps the top Limit. Zero keeps every
	// match in canonical ascending-id order.
	Limit int
}

// Result is a Search answer. Found reports whether anything matched.
// Best is the single best match of a best-of similarity query (All
// false); its ID is -1 when it does not apply. Matches carries the match
// list of All similarity queries and of every containment query.
type Result struct {
	Found   bool
	Best    Match
	Matches []Match
}

// Search is the single entry point of the query-mode API: one request
// shape, one error-returning path, both workloads. The deprecated
// Query/QueryAll/QueryBatch wrappers forward to the same machinery.
//
// Every mode is deterministic: answers are byte-identical across shard
// counts, partition schemes, worker counts and distributed topologies.
// The only error sources are an invalid request (mode or threshold) and
// a dead distributed topology (a shard moved to peers with no live
// replica and no retained local copy).
func (s *ShardedIndex) Search(q Query) (Result, error) {
	set := intset.Normalize(q.Set)
	switch q.Mode {
	case "", ModeSimilarity:
		return s.searchSimilarity(set, q)
	case ModeContainment:
		return s.searchContainment(set, q)
	default:
		return Result{}, fmt.Errorf("ssjoin: unknown query mode %q (want %q or %q)",
			q.Mode, ModeSimilarity, ModeContainment)
	}
}

func (s *ShardedIndex) searchSimilarity(set []uint32, q Query) (Result, error) {
	lambda := s.ix.Lambda()
	t := q.Threshold
	if t == 0 {
		t = lambda
	}
	if t < lambda || t > 1 {
		return Result{}, fmt.Errorf(
			"ssjoin: similarity threshold %v outside [%v, 1] — the index only sees matches at its build threshold λ=%v or above",
			q.Threshold, lambda, lambda)
	}
	if !q.All {
		id, sim, ok, err := s.ix.QueryErr(set)
		if err != nil {
			return Result{}, err
		}
		if !ok || sim < t {
			return Result{Best: Match{ID: -1}}, nil
		}
		return Result{Found: true, Best: Match{ID: id, Sim: sim}}, nil
	}
	raw, err := s.ix.QueryAllErr(set)
	if err != nil {
		return Result{}, err
	}
	ms := toMatches(raw)
	if t > lambda {
		kept := ms[:0]
		for _, m := range ms {
			if m.Sim >= t {
				kept = append(kept, m)
			}
		}
		ms = kept
	}
	ms = rankLimit(ms, q.Limit)
	return Result{Found: len(ms) > 0, Best: Match{ID: -1}, Matches: ms}, nil
}

func (s *ShardedIndex) searchContainment(set []uint32, q Query) (Result, error) {
	raw, err := s.ix.QueryContain(set, q.Threshold)
	if err != nil {
		return Result{}, err
	}
	ms := rankLimit(toMatches(raw), q.Limit)
	return Result{Found: len(ms) > 0, Best: Match{ID: -1}, Matches: ms}, nil
}

// QueryContain is the convenience form of a containment Search: every
// indexed set x with |q ∩ x| / |q| >= t, scored by the exact containment
// value and sorted by ascending id.
func (s *ShardedIndex) QueryContain(q []uint32, t float64) ([]Match, error) {
	ms, err := s.ix.QueryContain(intset.Normalize(q), t)
	if err != nil {
		return nil, err
	}
	return toMatches(ms), nil
}

// rankLimit applies Query.Limit: re-rank by score descending (ties by
// ascending id) and keep the top n. Non-positive limits return the input
// untouched in canonical id order.
func rankLimit(ms []Match, limit int) []Match {
	if limit <= 0 {
		return ms
	}
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].Sim != ms[j].Sim {
			return ms[i].Sim > ms[j].Sim
		}
		return ms[i].ID < ms[j].ID
	})
	if len(ms) > limit {
		ms = ms[:limit]
	}
	return ms
}

// RuntimeOptions is the consolidated post-construction configuration of
// a ShardedIndex: everything that tunes a built or loaded index without
// changing its answers. See ShardedIndex.Configure.
type RuntimeOptions = shard.RuntimeOptions

// Tier names a shard storage tier for RuntimeOptions.Tiering and
// LoadOptions.Tiering: TierHot keeps every shard's sets on the heap,
// TierCold leaves them in memory-mapped shard files, TierAuto picks per
// shard by size and retiers on query frequency. Answers are byte-identical across
// tiers; only memory and latency differ.
type Tier = shard.Tier

// Storage tiers (see Tier).
const (
	TierHot  = shard.TierHot
	TierCold = shard.TierCold
	TierAuto = shard.TierAuto
)

// Configure applies the runtime configuration in one validated call —
// the replacement for the SetAutoCompact / EnableCache setters. It is
// idempotent, and the applied state is saved with the index and
// re-applied automatically by LoadShardedIndex, so callers no longer
// re-apply the cache by hand after a restart.
func (s *ShardedIndex) Configure(ro RuntimeOptions) error {
	return s.ix.Configure(ro)
}

// Runtime reports the currently applied runtime configuration.
func (s *ShardedIndex) Runtime() RuntimeOptions {
	return s.ix.Runtime()
}
