package ssjoin

import (
	"slices"

	"repro/internal/shard"
)

// QueryMode selects the semantics of a Query: what "match" means and
// what the threshold is measured against.
type QueryMode = shard.Mode

const (
	// ModeSimilarity matches indexed sets by Jaccard similarity
	// J(q, x) = |q ∩ x| / |q ∪ x| — the CPSJoin workload the index is
	// built for. The index's build threshold λ is the floor; a Query
	// threshold may narrow results further but never below λ.
	ModeSimilarity = shard.ModeSimilarity
	// ModeContainment matches indexed sets by Jaccard containment
	// C(q, x) = |q ∩ x| / |q| — "find indexed sets that contain most of
	// my query", the domain-discovery workload of LSH Ensemble (Zhu et
	// al., VLDB 2016). The threshold is per query, anywhere in (0,1].
	ModeContainment = shard.ModeContainment
)

// Query is one search request against a ShardedIndex — the single
// request shape of the query-mode API: the set (normalized on entry, so
// callers may pass raw token ids), the Mode, the Threshold (similarity:
// zero means λ, explicit values lie in [λ, 1], and either way the answer is
// the all-matches answer narrowed to the threshold, best-of returning its
// top match, ties to the lower id; containment: required, in (0,1]), All
// (every match instead of the best one; implied in containment mode) and
// Limit (when positive, re-rank by score and keep the top Limit).
type Query = shard.Request

// Result is a Search answer. Found reports whether anything matched.
// Best is the single best match of a best-of similarity query (All
// false) — the top of the All answer at the same threshold; its ID is -1
// when it does not apply. Matches carries the match list of All similarity
// queries and of every containment query.
type Result = shard.Result

// Search is the single query entry point: one request shape, one path,
// both workloads.
//
// Every mode is deterministic: answers are byte-identical across shard
// counts, partition schemes, worker counts and storage tiers. The only
// error source is an invalid request (mode or threshold): every shard was
// validated when it was built or loaded, so serving one cannot fail.
func (s *ShardedIndex) Search(q Query) (Result, error) {
	res, err := s.ix.Search(q, nil)
	// The match list may be a live result-cache entry, read-only inside the
	// index; callers get their own copy.
	res.Matches = slices.Clone(res.Matches)
	return res, err
}

// RuntimeOptions is the post-construction configuration of a
// ShardedIndex: the result cache and auto-compaction, which tune a built or
// loaded index without changing its answers. ShardedIndex.Configure is the
// only place they are set.
type RuntimeOptions = shard.RuntimeOptions

// Tier names a shard storage tier for LoadOptions.Tiering: TierHot keeps
// every loaded shard's trie and sets on the heap, TierCold leaves them in
// memory-mapped shard files. Both validate every shard file at load, answer
// byte-identically and cost the same per query; the choice is about memory,
// it is made when a snapshot is loaded, and a shard keeps it: nothing moves
// a shard between tiers afterwards. Shards that Add seals or Compact merges
// are built on the heap.
type Tier = shard.Tier

// Storage tiers (see Tier).
const (
	TierHot  = shard.TierHot
	TierCold = shard.TierCold
)

// Configure applies the runtime configuration in one validated call. It
// is idempotent and fails only on invalid options (changing nothing). The
// configuration belongs to this process: Save does not store it, and a
// loaded index starts with none.
func (s *ShardedIndex) Configure(ro RuntimeOptions) error {
	return s.ix.Configure(ro)
}

// Runtime reports the currently applied runtime configuration.
func (s *ShardedIndex) Runtime() RuntimeOptions {
	return s.ix.Runtime()
}
