package ssjoin

import (
	"slices"

	"repro/internal/shard"
)

// ShardedOptions configures a ShardedIndex.
type ShardedOptions struct {
	// Shards is the number of primary shards the collection is partitioned
	// into (default 4). Each shard is an independent Chosen Path index.
	Shards int
	// HashPartition assigns sets to shards by a seeded id hash instead of
	// contiguous ranges — use it when the input order is correlated with
	// set structure (e.g. sorted by size) and shards should stay balanced.
	HashPartition bool
	// MergeThreshold is the buffered-append count at which Add seals the
	// side shard into the ring as a full shard (default 1024).
	MergeThreshold int
	// Trees, LeafSize, T, Seed are the per-shard index parameters, as in
	// SearchOptions (recall is per shard, so it does not depend on the
	// shard count); shard k is built with seed shard.SeedFor(Seed, k).
	Trees    int
	LeafSize int
	T        int
	Seed     uint64
	// Workers parallelizes construction, sealing and QueryBatch on the
	// shared execution layer: 0 sequential, negative GOMAXPROCS. Results
	// are identical for any worker count.
	Workers int
	// AutoCompact runs Compact in the background after every seal, so a
	// long-lived index reclaims small shards and tombstones on its own.
	AutoCompact bool
	// CacheSize enables the hot-query result cache with room for that
	// many entries (0 disables it). Cached answers are keyed on an
	// internal version bumped by every mutation, so they are always
	// identical to what the uncached path would return.
	CacheSize int
}

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
	var o *shard.Options
	if opts != nil {
		o = &shard.Options{
			Shards:         opts.Shards,
			MergeThreshold: opts.MergeThreshold,
			Trees:          opts.Trees,
			LeafSize:       opts.LeafSize,
			T:              opts.T,
			Seed:           opts.Seed,
			Workers:        opts.Workers,
			CacheSize:      opts.CacheSize,
		}
		if opts.HashPartition {
			o.Partition = shard.PartitionHash
		}
	}
	ix := shard.Build(sets, lambda, o)
	if opts != nil && opts.AutoCompact {
		rt := ix.Runtime()
		rt.AutoCompact = true
		ix.Configure(rt) // cannot fail: the state Build installed plus one flag
	}
	return &ShardedIndex{ix: ix}
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
// least 30% deleted are rebuilt — minus their tombstoned sets — into one
// merged shard, which swaps into the ring atomically. Query results are
// provably unchanged: global ids are preserved and only already-deleted
// sets are dropped (their tombstones retire with them). Queries and
// appends proceed concurrently; in-flight queries finish against the old
// ring. Passes serialize; Merged == 0 means nothing was eligible.
func (s *ShardedIndex) Compact() CompactResult {
	return s.ix.Compact()
}

// Delete removes the set with the given global id from all query results,
// reporting whether the id was live. Deletes are tombstones: sealed
// shards are immutable, so the id is filtered out at query-merge time and
// the physical entry is reclaimed when its side buffer seals. Safe to
// call concurrently with queries and Add.
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
// loaded index's Workers option). The loaded index answers Search and
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
