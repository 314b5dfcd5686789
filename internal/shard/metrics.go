package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpindex"
	"repro/internal/exec"
	"repro/internal/metrics"
)

// indexMetrics is the instrumentation of one sharded index: latency
// histograms for every serving operation, the candidate-pipeline counters
// shared by all of the index's cpindex shards (sealed, merged, loaded and
// hosted shards all flush into the same three atomics, so the counters
// stay monotone across seals and compaction swaps), per-peer RPC health,
// and scrape-time views of state that already lives elsewhere (cache
// counters, exec totals, index shape). Everything on the query path is a
// plain atomic update — the zero-allocations-per-query contract of the
// query kernel survives instrumentation, enforced by TestQueryMetricsAllocs.
type indexMetrics struct {
	reg *metrics.Registry

	// queryLat is cps_query_seconds by query kind: op="query", "query_all",
	// "contain" and "query_batch".
	queryLat  [numKinds]*metrics.Histogram
	addLat    *metrics.Histogram // cps_mutation_seconds{op="add"}
	deleteLat *metrics.Histogram // cps_mutation_seconds{op="delete"}

	queryErrors *metrics.Counter
	slowQueries *metrics.Counter

	compactLat       *metrics.Histogram
	compactMerged    *metrics.Counter
	compactReclaimed *metrics.Counter

	// Placement: re-runs of Distribute after a ring change that failed,
	// shard uploads, and GC evictions (and eviction attempts that failed
	// and will be retried).
	placementErrors   *metrics.Counter
	placementShipped  *metrics.Counter
	placementDeleted  *metrics.Counter
	placementGCErrors *metrics.Counter

	// Storage tiering: shard moves between the hot (heap) and cold (mapped)
	// tiers, by Configure (at runtime, or re-applied at the end of a load).
	tierPromotions *metrics.Counter
	tierDemotions  *metrics.Counter

	// cand is the candidate-pipeline counter set every cpindex shard of
	// this index flushes into (see cpindex.SetCounters).
	cand cpindex.QueryCounters

	// peers holds the lazily created per-peer collectors, keyed by base
	// URL. Created on first contact (or at Distribute time), never removed:
	// a peer that drops out of the ring keeps reporting its last state.
	peerMu sync.Mutex
	peers  map[string]*peerMetrics
}

// peerMetrics is one peer's RPC instrumentation plus its passive health
// bit: healthy flips false on any failed RPC and back on the next success,
// so readiness reflects what queries actually observed. The only other
// traffic that moves it is /v1/readyz re-checking a down peer that leaves
// a shard unanswerable (see Index.ready).
type peerMetrics struct {
	lat       *metrics.Histogram
	rpcErrors *metrics.Counter
	failovers *metrics.Counter
	healthy   atomic.Bool
}

// observe records one RPC's latency and updates the passive health bit.
func (p *peerMetrics) observe(d time.Duration, err error) {
	if p == nil {
		return
	}
	p.lat.Observe(d)
	if err != nil {
		p.rpcErrors.Inc()
		p.healthy.Store(false)
	} else {
		p.healthy.Store(true)
	}
}

// failover counts one replica skip. Callers count it only when another
// option (a further replica or the local copy) exists — the last resort
// failing is a query error, not a failover.
func (p *peerMetrics) failover() {
	if p != nil {
		p.failovers.Inc()
	}
}

// isHealthy reports the passive health bit; an uninstrumented or
// never-contacted peer counts as healthy (nothing observed against it).
func (p *peerMetrics) isHealthy() bool { return p == nil || p.healthy.Load() }

// newIndexMetrics builds the index's registry and its collectors. Shape
// gauges and the cache/exec counters are scrape-time reads — nothing is
// double-booked on a mutation path.
func newIndexMetrics(x *Index) *indexMetrics {
	reg := metrics.NewRegistry()
	m := &indexMetrics{
		reg:   reg,
		peers: make(map[string]*peerMetrics),

		addLat:    reg.Histogram("cps_mutation_seconds", "mutation latency by operation (add includes any seal it triggers)", "op", "add"),
		deleteLat: reg.Histogram("cps_mutation_seconds", "mutation latency by operation (add includes any seal it triggers)", "op", "delete"),

		queryErrors: reg.Counter("cps_query_errors_total", "queries failed on a dead remote topology or a corrupt cold shard"),
		slowQueries: reg.Counter("cps_slow_queries_total", "queries over the configured slow-query threshold"),

		compactLat:       reg.Histogram("cps_compaction_seconds", "duration of completed compaction passes"),
		compactMerged:    reg.Counter("cps_compaction_merged_shards_total", "ring shards removed or rewritten by compaction"),
		compactReclaimed: reg.Counter("cps_compaction_reclaimed_ids_total", "tombstoned entries physically dropped by compaction"),

		placementErrors:   reg.Counter("cps_placement_errors_total", "re-placements after a seal or compaction that ended in an error"),
		placementShipped:  reg.Counter("cps_placement_shipped_total", "shard uploads to peers"),
		placementDeleted:  reg.Counter("cps_placement_gc_deleted_total", "superseded hosted shards evicted from peers"),
		placementGCErrors: reg.Counter("cps_placement_gc_errors_total", "hosted-shard evictions that failed and will be retried"),

		tierPromotions: reg.Counter("cps_tier_promotions_total", "cold shards promoted to the hot (heap) tier"),
		tierDemotions:  reg.Counter("cps_tier_demotions_total", "hot shards demoted to the mapped cold tier"),
	}

	for kind, op := range [numKinds]string{kindBest: "query", kindAll: "query_all", kindContain: "contain", kindBatch: "query_batch"} {
		m.queryLat[kind] = reg.Histogram("cps_query_seconds", "serving-path query latency by operation", "op", op)
	}

	// Candidate pipeline: generated by tree traversal, exact-verified, and
	// rejected by verification. (cpindex verifies with an exact Jaccard
	// check — the sketch stage of the paper's join lives in the join
	// algorithms, not the query path — so rejections here are
	// verification rejections.)
	reg.CounterFunc("cps_candidates_total", "candidates generated by shard tree traversals", m.cand.Candidates.Load)
	reg.CounterFunc("cps_verified_total", "candidates exact-verified (Jaccard)", m.cand.Verified.Load)
	reg.CounterFunc("cps_rejected_total", "candidates rejected by exact verification", m.cand.Rejected.Load)

	// Index shape, read under the lock at scrape time.
	reg.GaugeFunc("cps_index_sets", "live indexed sets", func() float64 {
		return float64(x.Len())
	})
	reg.GaugeFunc("cps_index_shards", "ring shards", func() float64 {
		x.mu.RLock()
		defer x.mu.RUnlock()
		return float64(len(x.shards))
	})
	reg.GaugeFunc("cps_index_remote_shards", "ring shards backed by peers", func() float64 {
		x.mu.RLock()
		defer x.mu.RUnlock()
		n := 0
		for _, sh := range x.shards {
			if _, ok := sh.(*remoteShard); ok {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("cps_tier_hot_shards", "local ring shards with their sets on the heap (hot tier)", func() float64 {
		hot, _ := x.tierCounts()
		return float64(hot)
	})
	reg.GaugeFunc("cps_tier_cold_shards", "local ring shards left in their memory-mapped containers (cold tier)", func() float64 {
		_, cold := x.tierCounts()
		return float64(cold)
	})
	reg.GaugeFunc("cps_index_buffered", "sets in the side buffer and in-flight seals", func() float64 {
		x.mu.RLock()
		defer x.mu.RUnlock()
		n := len(x.side.sets)
		for _, b := range x.sealing {
			n += len(b.sets)
		}
		return float64(n)
	})
	reg.GaugeFunc("cps_index_tombstones", "deleted ids still physically present", func() float64 {
		x.mu.RLock()
		defer x.mu.RUnlock()
		return float64(len(x.tombs))
	})
	reg.GaugeFunc("cps_index_generation", "ring generation (seals, compaction swaps, distributions)", func() float64 {
		x.mu.RLock()
		defer x.mu.RUnlock()
		return float64(x.generation)
	})
	reg.GaugeFunc("cps_index_version", "result version (bumped by every result-affecting mutation)", func() float64 {
		return float64(x.version.Load())
	})
	reg.GaugeFunc("cps_placement_epoch", "placement passes recorded (Distribute calls and the re-runs ring changes trigger)", func() float64 {
		e, _ := x.placement.stats()
		return float64(e)
	})
	reg.GaugeFunc("cps_placement_tracked_keys", "distinct shard keys the coordinator believes peers host for it", func() float64 {
		_, k := x.placement.stats()
		return float64(k)
	})

	// Result cache, read from whatever cache is installed at scrape time.
	reg.GaugeFunc("cps_cache_entries", "result cache entries (0 when disabled)", func() float64 {
		if c := x.cache.Load(); c != nil {
			n, _, _ := c.stats()
			return float64(n)
		}
		return 0
	})
	reg.CounterFunc("cps_cache_hits_total", "result cache hits", func() uint64 {
		if c := x.cache.Load(); c != nil {
			_, h, _ := c.stats()
			return h
		}
		return 0
	})
	reg.CounterFunc("cps_cache_misses_total", "result cache misses (version-orphaned entries included)", func() uint64 {
		if c := x.cache.Load(); c != nil {
			_, _, mi := c.stats()
			return mi
		}
		return 0
	})

	// Execution layer: process-wide work-stealing pool totals.
	reg.CounterFunc("cps_exec_tasks_total", "tasks completed by the execution layer", func() uint64 {
		return exec.ReadStats().TasksRun
	})
	reg.CounterFunc("cps_exec_steals_total", "tasks stolen between workers", func() uint64 {
		return exec.ReadStats().Steals
	})
	reg.GaugeFunc("cps_exec_queue_depth", "tasks currently queued or executing", func() float64 {
		return float64(exec.ReadStats().QueueDepth)
	})
	return m
}

// tierCounts splits the local ring by residency: one walk under the read
// lock, no allocation — a scrape must not cost what Stats does.
func (x *Index) tierCounts() (hot, cold int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, sh := range x.shards {
		s, ok := sh.(*localShard)
		if !ok {
			continue
		}
		if s.isCold() {
			cold++
		} else {
			hot++
		}
	}
	return hot, cold
}

// peer returns (creating on first use) the collectors for one peer base
// URL. Safe on a nil receiver, so uninstrumented indexes cost only a nil
// check.
func (m *indexMetrics) peer(base string) *peerMetrics {
	if m == nil {
		return nil
	}
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	pm, ok := m.peers[base]
	if !ok {
		pm = &peerMetrics{
			lat:       m.reg.Histogram("cps_peer_rpc_seconds", "per-peer shard RPC latency (readiness re-checks included)", "peer", base),
			rpcErrors: m.reg.Counter("cps_peer_rpc_errors_total", "failed shard RPCs by peer (readiness re-checks included)", "peer", base),
			failovers: m.reg.Counter("cps_peer_failovers_total", "replica skips by peer (another replica or the local copy took over)", "peer", base),
		}
		pm.healthy.Store(true)
		m.reg.GaugeFunc("cps_peer_healthy", "1 when the peer's last shard RPC succeeded", func() float64 {
			if pm.healthy.Load() {
				return 1
			}
			return 0
		}, "peer", base)
		m.peers[base] = pm
	}
	return pm
}

// Metrics returns the index's metric registry — the /metrics endpoint body
// and the hook tests and benchmarks scrape.
func (x *Index) Metrics() *metrics.Registry {
	if x.metrics == nil {
		return nil
	}
	return x.metrics.reg
}

// attachCounters points one local shard — its current views and the ones
// later tier moves create — at the index's shared candidate pipeline
// counters. Called at every shard creation site — Build, seal, compaction
// merge, snapshot load, hosted-shard registration — before the shard is
// published to queries.
func (x *Index) attachCounters(s *localShard) {
	if x.metrics == nil {
		return
	}
	s.counters = &x.metrics.cand
	r := s.res.Load()
	if r.hot != nil {
		r.hot.SetCounters(s.counters)
	}
	if r.cold != nil {
		r.cold.SetCounters(s.counters)
	}
}
