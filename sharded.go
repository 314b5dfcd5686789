package ssjoin

import (
	"slices"

	"repro/internal/shard"
)

// ShardedOptions are a ShardedIndex's build parameters: the shard count,
// HashPartition (a seeded id hash instead of contiguous ranges, for input
// whose order follows set structure), MergeThreshold, the per-shard
// cpindex parameters Trees, LeafSize and T (defaults 10, 32 and 128, a
// SearchIndex's), Seed (shard k is built with seed shard.SeedFor(Seed, k)),
// and Workers. The result cache and auto-compaction are not build
// parameters: set them with Configure.
type ShardedOptions = shard.Options

// ShardedIndex is a similarity search index partitioned into independently
// built shards — the serving-scale counterpart of SearchIndex. Queries fan
// out across shards and merge with global ids preserved; QueryBatch
// processes query slices as parallel tasks; Add absorbs new sets into a
// side shard without rebuilding (sealed into the ring past a threshold).
// It is safe for concurrent use, including Add concurrent with queries.
type ShardedIndex struct {
	ix *shard.Index
}

// NewShardedIndex builds a sharded search index over the collection for
// similarity threshold lambda. The collection is referenced, not copied.
func NewShardedIndex(sets [][]uint32, lambda float64, opts *ShardedOptions) *ShardedIndex {
	return &ShardedIndex{ix: shard.Build(sets, lambda, opts)}
}

// QueryBatch answers many normalized queries at once as parallel tasks
// over a read-only snapshot of the shards: results[i] is every similarity
// match of qs[i] (buffered appends included, scanned exactly), sorted by
// id, identical for any worker count. It cannot fail: every shard was
// validated when it was built or loaded.
func (s *ShardedIndex) QueryBatch(qs [][]uint32) [][]Match {
	out := s.ix.QueryBatchErr(qs)
	for i := range out {
		out[i] = slices.Clone(out[i])
	}
	return out
}

// Add appends sets (normalized, like the build input) to the index and
// returns their global ids. Appended sets are findable immediately with
// recall 1.0; once MergeThreshold of them accumulate they are sealed into
// a new shard. Empty sets cannot be indexed and cause a panic before any
// state changes.
func (s *ShardedIndex) Add(sets [][]uint32) []int {
	return s.ix.Add(sets)
}

// Flush seals any buffered appends into the shard ring immediately.
func (s *ShardedIndex) Flush() {
	s.ix.Flush()
}

// CompactResult reports what one Compact pass did.
type CompactResult = shard.CompactResult

// Compact runs one compaction pass: small ring shards (at most
// 2×MergeThreshold sets; sealed appends accumulate them) and shards at
// least 30% deleted are rebuilt — minus their deleted sets — into one
// merged shard, which swaps into the ring atomically. Query results are
// provably unchanged: global ids are preserved and only already-deleted
// sets are dropped (their ids stay deleted). Queries and appends proceed
// concurrently; in-flight queries finish against the old ring. Passes
// serialize; Merged == 0 means nothing was eligible.
func (s *ShardedIndex) Compact() CompactResult {
	return s.ix.Compact()
}

// Delete removes the set with the given global id from all query results,
// reporting whether the id was live. Sealed shards are immutable, so the
// id joins one deleted set filtered out at query-merge time, and the
// physical entry is reclaimed when its side buffer seals or, once sealed,
// when Compact rewrites its shard; the id stays deleted. Safe to call
// concurrently with queries and Add.
func (s *ShardedIndex) Delete(id int) bool {
	return s.ix.Delete(id)
}

// DeleteBatch deletes many ids at once, returning how many were live;
// unknown and already-deleted ids are skipped.
func (s *ShardedIndex) DeleteBatch(ids []int) int {
	return s.ix.DeleteBatch(ids)
}

// Len returns the number of live indexed sets (buffered appends included,
// deleted sets excluded).
func (s *ShardedIndex) Len() int {
	return s.ix.Len()
}

// Save writes the index to dir: one versioned, checksummed binary file
// per sealed shard plus a JSON manifest (options, counters, buffered
// appends, tombstones). Shard files are written in parallel on the
// execution layer, and the manifest goes last, so an interrupted save
// leaves the previous snapshot readable.
func (s *ShardedIndex) Save(dir string) error {
	return s.ix.Save(dir)
}

// LoadShardedIndex reopens an index saved by Save in the hot tier, loading
// shard files as parallel tasks with the given worker count (which also becomes the
// loaded index's Workers option). It starts with zero RuntimeOptions, since a
// snapshot stores no serving settings. The loaded index answers Search and
// QueryBatch identically to the one that was saved, and Add continues
// assigning ids from where it left off. Every shard file is validated here:
// corrupt, truncated or wrong-version snapshots yield descriptive errors,
// never a panic, and what loads cannot fail a query later.
func LoadShardedIndex(dir string, workers int) (*ShardedIndex, error) {
	ix, err := shard.Load(dir, workers)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{ix: ix}, nil
}

// LoadOptions controls how LoadShardedIndexWithOptions reopens a
// snapshot: shard-load parallelism plus the storage tier the loaded shards
// keep. Every shard file is validated in either tier; hot, the default, then
// copies it to the heap, cold uses the memory-mapped file in place. The tier
// a snapshot was saved from plays no part.
type LoadOptions = shard.LoadOptions

// LoadShardedIndexWithOptions is LoadShardedIndex with the storage tier
// under caller control. Whatever the tier, the loaded index answers
// queries byte-identically to the one that was saved.
func LoadShardedIndexWithOptions(dir string, opts LoadOptions) (*ShardedIndex, error) {
	ix, err := shard.LoadWithOptions(dir, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{ix: ix}, nil
}

// ShardStats describes the current shape of a ShardedIndex.
type ShardStats = shard.Stats

// Stats returns a point-in-time snapshot of the index shape: shard count
// and sizes, buffered appends, seal/merge count, tree node totals.
func (s *ShardedIndex) Stats() ShardStats {
	return s.ix.Stats()
}
