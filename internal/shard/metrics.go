package shard

import (
	"repro/internal/cpindex"
	"repro/internal/exec"
	"repro/internal/metrics"
)

// indexMetrics is the instrumentation of one sharded index: latency
// histograms for every serving operation, the candidate-pipeline counters
// shared by all of the index's cpindex shards (built, sealed, merged and
// loaded shards all flush into the same three atomics, so the counters
// stay monotone across seals and compaction swaps), and scrape-time views of state that already lives elsewhere (cache
// counters, exec totals, index shape). Everything on the query path is a
// plain atomic update — the zero-allocations-per-query contract of the
// query kernel survives instrumentation, enforced by TestQueryMetricsAllocs.
type indexMetrics struct {
	reg *metrics.Registry

	// queryLat is cps_query_seconds by query kind: op="query_all" (every
	// similarity query, best-of ones included: they are the all-matches query
	// reduced to its top match), "contain" and "query_batch".
	queryLat  [numKinds]*metrics.Histogram
	addLat    *metrics.Histogram // cps_mutation_seconds{op="add"}
	deleteLat *metrics.Histogram // cps_mutation_seconds{op="delete"}

	slowQueries *metrics.Counter

	compactLat       *metrics.Histogram
	compactMerged    *metrics.Counter
	compactReclaimed *metrics.Counter

	// cand is the candidate-pipeline counter set every cpindex shard of
	// this index flushes into (see cpindex.SetCounters).
	cand cpindex.QueryCounters
}

// newIndexMetrics builds the index's registry and its collectors. Shape
// gauges and the cache/exec counters are scrape-time reads — nothing is
// double-booked on a mutation path.
func newIndexMetrics(x *Index) *indexMetrics {
	reg := metrics.NewRegistry()
	m := &indexMetrics{
		reg: reg,

		addLat:    reg.Histogram("cps_mutation_seconds", "mutation latency by operation (add includes any seal it triggers)", "op", "add"),
		deleteLat: reg.Histogram("cps_mutation_seconds", "mutation latency by operation (add includes any seal it triggers)", "op", "delete"),

		slowQueries: reg.Counter("cps_slow_queries_total", "queries over the configured slow-query threshold"),

		compactLat:       reg.Histogram("cps_compaction_seconds", "duration of completed compaction passes"),
		compactMerged:    reg.Counter("cps_compaction_merged_shards_total", "ring shards removed or rewritten by compaction"),
		compactReclaimed: reg.Counter("cps_compaction_reclaimed_ids_total", "tombstoned entries physically dropped by compaction"),
	}

	for kind, op := range [numKinds]string{kindAll: "query_all", kindContain: "contain", kindBatch: "query_batch"} {
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
	reg.GaugeFunc("cps_tier_hot_shards", "ring shards with their sets on the heap (hot tier)", func() float64 {
		hot, _ := x.tierCounts()
		return float64(hot)
	})
	reg.GaugeFunc("cps_tier_cold_shards", "ring shards left in their memory-mapped containers (cold tier)", func() float64 {
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
		return float64(x.deleted.Count() - x.reclaimed)
	})
	reg.GaugeFunc("cps_index_generation", "ring generation (seals and compaction swaps)", func() float64 {
		x.mu.RLock()
		defer x.mu.RUnlock()
		return float64(x.generation)
	})
	reg.GaugeFunc("cps_index_version", "result version (bumped by every result-affecting mutation)", func() float64 {
		return float64(x.version.Load())
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

// tierCounts splits the ring by residency: one walk under the read lock,
// no allocation — a scrape must not cost what Stats does.
func (x *Index) tierCounts() (hot, cold int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, s := range x.shards {
		if s.cold {
			cold++
		} else {
			hot++
		}
	}
	return hot, cold
}

// Metrics returns the index's metric registry — the /metrics endpoint body
// and the hook tests and benchmarks scrape.
func (x *Index) Metrics() *metrics.Registry {
	if x.metrics == nil {
		return nil
	}
	return x.metrics.reg
}

// attachCounters points one shard's views at the index's shared candidate
// pipeline counters. Called at every shard creation site — buildShard
// (Build, seal, compaction merge) and snapshot load — before the shard is
// published to queries.
func (x *Index) attachCounters(s *localShard) {
	if x.metrics == nil {
		return
	}
	s.ix.SetCounters(&x.metrics.cand)
}
