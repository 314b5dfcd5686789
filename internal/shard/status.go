package shard

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

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
	// Generation counts ring changes: seals, compaction swaps and remote
	// placements.
	Generation int `json:"generation"`
	// RemoteShards counts ring shards currently backed by peers (placed or
	// replicated via Distribute). Nodes and Leaves cover local structures
	// only — a remote shard's tree lives on its peer.
	RemoteShards int `json:"remote_shards"`
	// HotShards and ColdShards split the local ring by storage tier: sets
	// on the heap versus left in memory-mapped containers.
	HotShards  int `json:"hot_shards"`
	ColdShards int `json:"cold_shards"`
	// PlacementEpoch counts placement passes (Distribute calls, and the
	// re-runs every later seal or compaction triggers on a distributed
	// ring); PlacementKeys is the number of distinct shard
	// keys this coordinator currently believes peers host for it — after a
	// clean GC sweep it equals the ring's remote key count.
	PlacementEpoch int    `json:"placement_epoch"`
	PlacementKeys  int    `json:"placement_keys"`
	Nodes          int    `json:"nodes"`
	Leaves         int    `json:"leaves"`
	Partition      string `json:"partition"`
	Workers        int    `json:"workers"`
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
	st.PlacementEpoch, st.PlacementKeys = x.placement.stats()
	if c := x.cache.Load(); c != nil {
		st.CacheEnabled = true
		st.CacheEntries, st.CacheHits, st.CacheMisses = c.stats()
	}
	for _, sh := range x.shards {
		st.ShardSizes = append(st.ShardSizes, sh.size())
		local, ok := sh.(*localShard)
		if !ok {
			st.RemoteShards++
			continue
		}
		if local.isCold() {
			st.ColdShards++
		} else {
			st.HotShards++
		}
		nodes, leaves := local.structure()
		st.Nodes += nodes
		st.Leaves += leaves
	}
	return st
}

// PeerHealth is one peer's serving view in a health report: the passive
// health bit plus its lifetime RPC counters.
type PeerHealth struct {
	Peer      string `json:"peer"`
	Healthy   bool   `json:"healthy"`
	RPCs      uint64 `json:"rpcs"`
	Errors    uint64 `json:"errors"`
	Failovers uint64 `json:"failovers"`
}

// HealthStatus is the readiness report behind /healthz and /readyz. Ready
// is false exactly when some remote-backed shard is unanswerable: every
// replica's last RPC failed and no local copy remains — the condition
// under which QueryErr would return an error. An all-local ring is always
// ready.
type HealthStatus struct {
	Ready        bool   `json:"ready"`
	Generation   int    `json:"generation"`
	Version      uint64 `json:"version"`
	Shards       int    `json:"shards"`
	RemoteShards int    `json:"remote_shards"`
	// UnreadyShards lists the remote shard keys with no healthy replica
	// and no local copy.
	UnreadyShards []string `json:"unready_shards,omitempty"`
	// Peers covers every peer referenced by the current ring, sorted by
	// URL. Health is passive — observed from real query RPCs — so a
	// never-contacted peer reports healthy. The one exception is
	// /v1/readyz on an unready ring: it re-checks the down peers that make
	// it unready (see Index.ready), so readiness recovers without query
	// traffic.
	Peers []PeerHealth `json:"peers,omitempty"`
}

// readyRecheckTimeout bounds /v1/readyz's re-check of the down peers.
const readyRecheckTimeout = time.Second

// answerable reports whether a query can reach the shard: a peer replica
// not marked down, or the local copy.
func (r *remoteShard) answerable() bool {
	if r.local != nil {
		return true
	}
	for _, base := range r.replicas {
		if r.metrics.peer(base).isHealthy() {
			return true
		}
	}
	return false
}

// ready is Health for /v1/readyz. When some shard is unanswerable it first
// sends one concurrent GET /v1/healthz to each of that shard's replicas —
// all marked down — bounded by readyRecheckTimeout; an answer flips the
// peer's health bit back, so a node a load balancer drained on 503 turns
// ready again once its peers heal, without a query to notice.
func (x *Index) ready(ctx context.Context) HealthStatus {
	x.mu.RLock()
	shards := x.shards
	x.mu.RUnlock()
	down := make(map[string]*http.Client)
	for _, sh := range shards {
		if r, ok := sh.(*remoteShard); ok && !r.answerable() {
			for _, base := range r.replicas {
				down[base] = r.httpClient()
			}
		}
	}
	if len(down) > 0 {
		ctx, cancel := context.WithTimeout(ctx, readyRecheckTimeout)
		defer cancel()
		var wg sync.WaitGroup
		for base, client := range down {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				err := pingPeer(ctx, client, base)
				x.metrics.peer(base).observe(time.Since(start), err)
			}()
		}
		wg.Wait()
	}
	return x.Health()
}

// Health reports the index's current serving health from the ring and the
// passive per-peer counters.
func (x *Index) Health() HealthStatus {
	x.mu.RLock()
	shards := x.shards
	gen := x.generation
	x.mu.RUnlock()

	st := HealthStatus{
		Ready:      true,
		Generation: gen,
		Version:    x.version.Load(),
		Shards:     len(shards),
	}
	seen := make(map[string]bool)
	for _, sh := range shards {
		r, ok := sh.(*remoteShard)
		if !ok {
			continue
		}
		st.RemoteShards++
		for _, base := range r.replicas {
			pm := x.metrics.peer(base)
			if !seen[base] {
				seen[base] = true
				ph := PeerHealth{Peer: base, Healthy: pm.isHealthy()}
				if pm != nil {
					ph.RPCs = pm.lat.Count()
					ph.Errors = pm.rpcErrors.Value()
					ph.Failovers = pm.failovers.Value()
				}
				st.Peers = append(st.Peers, ph)
			}
		}
		if !r.answerable() {
			st.Ready = false
			st.UnreadyShards = append(st.UnreadyShards, r.key)
		}
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Peer < st.Peers[j].Peer })
	return st
}
