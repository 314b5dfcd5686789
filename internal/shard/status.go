package shard

// Status reporting: the index's shape (Stats, behind /v1/stats) and its
// serving health (Health, behind /v1/healthz and /v1/readyz). Both are
// point-in-time reads of state owned elsewhere; neither is on a query or
// mutation path.

// Stats describes the current shape of a sharded index.
type Stats struct {
	Lambda float64 `json:"lambda"`
	// Sets counts live sets (deleted sets excluded, buffered included).
	Sets       int   `json:"sets"`
	Shards     int   `json:"shards"`
	ShardSizes []int `json:"shard_sizes"`
	Buffered   int   `json:"buffered"`
	Appends    int   `json:"appends"`
	Merges     int   `json:"merges"`
	// Deletes counts lifetime Delete calls that hit a live id;
	// Tombstones counts the deleted ids still physically present (and
	// thus filtered at query time) — seals compact buffered ones away,
	// Compact reclaims the rest.
	Deletes    int `json:"deletes"`
	Tombstones int `json:"tombstones"`
	// Compactions counts completed Compact passes, CompactedShards the
	// ring shards they removed or rewrote, and Reclaimed the deleted ids
	// whose physical entries have been dropped (by seals and compactions)
	// and whose tombstones are retired for good.
	Compactions     int `json:"compactions"`
	CompactedShards int `json:"compacted_shards"`
	Reclaimed       int `json:"reclaimed"`
	// Generation counts ring changes: seals and compaction swaps.
	Generation int `json:"generation"`
	// HotShards and ColdShards split the ring by storage tier: sets on the
	// heap versus left in memory-mapped containers.
	HotShards  int    `json:"hot_shards"`
	ColdShards int    `json:"cold_shards"`
	Nodes      int    `json:"nodes"`
	Leaves     int    `json:"leaves"`
	Partition  string `json:"partition"`
	Workers    int    `json:"workers"`
	// CacheEnabled reports whether the hot-query result cache is on;
	// when it is, CacheEntries is its current size and CacheHits /
	// CacheMisses its lifetime counters (misses include entries orphaned
	// by a version bump).
	CacheEnabled bool   `json:"cache_enabled"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
}

// Stats returns a point-in-time snapshot of the index shape.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	buffered := len(x.side.sets)
	for _, b := range x.sealing {
		buffered += len(b.sets)
	}
	st := Stats{
		Lambda:          x.lambda,
		Sets:            x.live,
		Shards:          len(x.shards),
		Buffered:        buffered,
		Appends:         x.appends,
		Merges:          x.merges,
		Deletes:         x.deletes,
		Tombstones:      len(x.tombs),
		Compactions:     x.compactions,
		CompactedShards: x.compactedShards,
		Reclaimed:       x.dropped.Count(),
		Generation:      x.generation,
		Partition:       x.opt.Partition.String(),
		Workers:         x.opt.Workers,
	}
	if c := x.cache.Load(); c != nil {
		st.CacheEnabled = true
		st.CacheEntries, st.CacheHits, st.CacheMisses = c.stats()
	}
	for _, sh := range x.shards {
		st.ShardSizes = append(st.ShardSizes, len(sh.ids))
		if sh.cold {
			st.ColdShards++
		} else {
			st.HotShards++
		}
		st.Nodes += sh.ix.Nodes
		st.Leaves += sh.ix.Leaves
	}
	return st
}

// HealthStatus is the report behind /v1/healthz and /v1/readyz. Ready is
// always true: an index answers from the moment Build or Load returns it, so
// a process that serves the report is ready to serve queries.
type HealthStatus struct {
	Ready      bool   `json:"ready"`
	Generation int    `json:"generation"`
	Version    uint64 `json:"version"`
	Shards     int    `json:"shards"`
}

// Health reports the index's current serving health.
func (x *Index) Health() HealthStatus {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return HealthStatus{
		Ready:      true,
		Generation: x.generation,
		Version:    x.version.Load(),
		Shards:     len(x.shards),
	}
}
