package main

// Per-layer replay of the serve workloads. The same queries go, one after
// the other, through the HTTP handler (server), the ring (shard) and one
// standalone index per shard range (cpindex), so each layer's self time is
// a difference of measured calls. The standalone indexes are built over
// shard.ContiguousRanges with shard.SeedFor and are structurally identical
// to the ring's shards.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	ssjoin "repro"
	"repro/internal/contain"
	"repro/internal/cpindex"
	"repro/internal/mmap"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// replayQueries is how many distinct queries the in-process replay times.
const replayQueries = 500

func traceServe(ctx context.Context, h *harness, tr *tracer, t *tally, res *workloadResult, workload string, seed uint64, e2eSeconds float64) error {
	// The child-process pass, shortened: ring counters, the ladder,
	// generator lag.
	e2e, err := runServe(ctx, h, workload, seed, e2eSeconds, true)
	if err != nil {
		return err
	}
	t.Phases, t.Failures = e2e.Phases, e2e.Failures
	res.Shape, res.Flags = e2e.Shape, e2e.Flags
	m := res.Metrics
	m["shard.cache_hit_ratio"] = e2e.Info["cache_hit_ratio"]
	m["shard.seals"] = e2e.Info["stats_seals"]
	m["shard.compactions"] = e2e.Info["stats_compactions"]
	m["shard.reclaimed"] = e2e.Info["stats_reclaimed"]
	m["server.late_share"] = e2e.Info["late_share"]
	m["server.rate_ok_qps"] = e2e.Info["rate_ok_qps"]
	m["server.best_p50_ms"] = e2e.Info["best_p50_ms"]
	m["server.contain_p50_ms"] = e2e.Info["contain_p50_ms"]
	m["server.write_max_ms"] = e2e.Info["write_max_ms"]
	m["metrics.scrape_ms"] = e2e.Info["scrape_ms"]
	m["metrics.series"] = e2e.Info["metrics_series"]
	m["loadgen.lag_p99_ms"] = e2e.Info["lag_p99_ms"]
	m["snapshot.bytes_per_input_byte"] = e2e.Info["snapshot_bytes_per_input_byte"]
	if ctx.Err() != nil {
		return ctx.Err()
	}

	mixed := workload == wServeMixed
	nproc := runtime.GOMAXPROCS(0)
	sh, n, merge := flatShape(serveReadSets, 0), serveReadSets, 0
	if mixed {
		sh, n, merge = skewShape(serveMixedSets, 0), serveMixedSets, serveMixedMerge
	}
	c := generate(sh, seed)
	input := h.path("catalogue.txt")
	if err := writeSets(input, c.Sets); err != nil {
		return err
	}
	var sets [][]uint32
	m["dataset.parse_s"] = tr.do(0, 0, "dataset.parse", func(int) { sets, err = ssjoin.LoadSets(input) }).Seconds()
	t.record("parse", err)
	if err != nil {
		return nil
	}
	pool := queryPool(c, sh.tokens, max(replayQueries, serveBatchSets), 0.52, seed)
	qs := pool[:replayQueries]

	// cpindex: one standalone index per shard range.
	ranges := shard.ContiguousRanges(n, serveShards)
	standalone := make([]*cpindex.Index, len(ranges))
	m["cpindex.build_s"] = tr.do(0, 0, "cpindex.build", func(int) {
		for k, r := range ranges {
			standalone[k] = cpindex.Build(sets[r[0]:r[1]], serveLambda, &cpindex.Options{Seed: shard.SeedFor(serveSeed, k), Workers: nproc})
			m["cpindex.nodes"] += float64(standalone[k].Nodes)
		}
	}).Seconds()

	// shard and server over the same collection.
	opts := &shard.Options{Shards: serveShards, Seed: serveSeed, Workers: nproc, MergeThreshold: merge}
	var hot *shard.Index // as built: decoded shards, no cache
	build := tr.do(0, 0, "shard.build", func(int) { hot = shard.Build(sets, serveLambda, opts) })
	ring := hot // what the workload's server serves from
	if mixed {
		// The mixed server runs restored from a snapshot, cold, with a cache.
		if ring, err = traceSnapshot(h, tr, t, m, hot, build); err != nil {
			return nil
		}
		traceCold(h, tr, t, m, standalone, qs)
		traceContain(tr, m, sets, ranges, qs)
	}
	handler := shard.NewServerOpts(ring, &shard.ServerOptions{DisableMetrics: true})

	// The replay: each query through server, shard and every shard's index.
	replay := func(tr *tracer) {
		var dst []cpindex.Match
		for i, q := range qs {
			req := i + 1
			body := queryBody(q.Set, readAll)
			tr.do(0, req, "server.handle", func(int) {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			})
			// The ring and the per-shard walks are timed as separate calls
			// and recorded as what the handler caused, so the handler's
			// self time is its span minus theirs.
			serverSpan := len(tr.spans)
			tr.do(serverSpan, req, "shard.query", func(int) { ring.QueryAllErr(q.Set) })
			ringSpan := len(tr.spans)
			for k := range standalone {
				tr.do(ringSpan, req, "cpindex.query", func(int) { dst = standalone[k].AppendAll(dst[:0], q.Set) })
			}
		}
	}
	// Let pools and lazy state fill, then alternate passes without spans
	// and with them; the difference between the faster of each is what
	// tracing costs. The last traced pass is the one the metrics read.
	quiet := &tracer{off: true}
	replay(quiet)
	timed := func(tr *tracer) float64 {
		start := time.Now()
		replay(tr)
		return time.Since(start).Seconds()
	}
	plain, traced := timed(quiet), timed(newTracer())
	plain, traced = min(plain, timed(quiet)), min(traced, timed(tr))
	m["trace.overhead_pct"] = 100 * (traced - plain) / plain

	// A layer's self time is its span minus the spans it caused, per
	// request; the metric is the median over requests.
	m["server.handle_us"] = median(tr.perRequest("server.handle", false))
	m["server.self_us"] = median(tr.perRequest("server.handle", true))
	m["cpindex.query_us"] = median(tr.perRequest("cpindex.query", false))
	if !mixed {
		// With the cache off every replayed query walks the shards, so the
		// layers add up: handle ≈ server self + shard self + Σ cpindex.
		m["shard.query_us"] = median(tr.perRequest("shard.query", false))
		m["shard.self_us"] = median(tr.perRequest("shard.query", true))
	} else {
		// Here every replayed query after the first pass hits the cache;
		// the ring's miss path is timed apart, with the cache off.
		m["shard.cache_hit_us"] = median(tr.perRequest("shard.query", false))
		traceMisses(m, ring, qs)
	}
	m["server.net_us"] = 1000*e2e.Metrics["query_p50_ms"] - m["server.handle_us"]

	// Counts come from the stats-collecting variant of the same walk, in
	// its own untimed pass, so counting does not weigh on cpindex.query_us.
	var total cpindex.QueryStats
	var dst []cpindex.Match
	for _, q := range qs {
		for k := range standalone {
			var st cpindex.QueryStats
			dst, st = standalone[k].AppendAllWithStats(dst[:0], q.Set)
			total.Candidates, total.Verified, total.Rejected = total.Candidates+st.Candidates, total.Verified+st.Verified, total.Rejected+st.Rejected
		}
	}
	m["cpindex.candidates_per_q"] = float64(total.Candidates) / replayQueries
	m["cpindex.verified_per_q"] = float64(total.Verified) / replayQueries
	m["cpindex.rejected_per_q"] = float64(total.Rejected) / replayQueries
	m["cpindex.verify_hit_ratio"] = ratio(float64(total.Verified-total.Rejected), float64(total.Verified))

	// Best-match walks, outside the span tree (one number per query).
	best := make([]float64, len(qs))
	for i, q := range qs {
		start := time.Now()
		for k := range standalone {
			standalone[k].QueryWithStats(q.Set)
		}
		best[i] = float64(time.Since(start)) / 1e3
	}
	m["cpindex.query_best_us"] = median(best)

	// Allocations per operation, and the batch path's use of exec.
	count, _ := mallocs(func() {
		for _, q := range qs {
			ring.QueryAllErr(q.Set)
		}
	})
	m["shard.allocs_per_query"] = float64(count) / replayQueries
	count, _ = mallocs(func() {
		for _, q := range qs {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(queryBody(q.Set, readAll))))
		}
	})
	m["server.allocs_per_request"] = float64(count) / replayQueries
	batch := make([][]uint32, serveBatchSets)
	for i := range batch {
		batch[i] = pool[i].Set
	}
	var parallel time.Duration
	m["exec.tasks"], m["exec.steals"] = execDelta(func() {
		count, _ = mallocs(func() {
			start := time.Now()
			hot.QueryBatchErr(batch)
			parallel = time.Since(start)
		})
	})
	m["shard.allocs_per_batch_query"] = float64(count) / serveBatchSets
	one := *opts
	one.Workers = 1
	sequential := shard.Build(sets, serveLambda, &one)
	start := time.Now()
	sequential.QueryBatchErr(batch)
	m["exec.batch_speedup"] = ratio(time.Since(start).Seconds(), parallel.Seconds())

	if mixed {
		traceWrites(tr, m, hot, sh, seed)
	}
	return nil
}

// traceSnapshot saves the built ring, restores it hot and cold, and
// returns the cold restore with the mixed server's cache installed.
func traceSnapshot(h *harness, tr *tracer, t *tally, m map[string]float64, built *shard.Index, build time.Duration) (*shard.Index, error) {
	dir := h.path("trace-data")
	var err error
	m["snapshot.save_s"] = tr.do(0, 0, "snapshot.save", func(int) { err = built.Save(dir) }).Seconds()
	t.record("snapshot_save", err)
	if err != nil {
		return nil, err
	}
	m["snapshot.restore_hot_s"] = tr.do(0, 0, "snapshot.restore_hot", func(int) {
		_, err = shard.LoadWithOptions(dir, shard.LoadOptions{Workers: runtime.GOMAXPROCS(0), Tiering: shard.TierHot})
	}).Seconds()
	t.record("snapshot_restore_hot", err)
	var cold *shard.Index
	m["snapshot.restore_cold_s"] = tr.do(0, 0, "snapshot.restore_cold", func(int) {
		cold, err = shard.LoadWithOptions(dir, shard.LoadOptions{Workers: runtime.GOMAXPROCS(0), Tiering: shard.TierCold})
	}).Seconds()
	t.record("snapshot_restore_cold", err)
	if err != nil {
		return nil, err
	}
	m["snapshot.build_over_restore_hot"] = ratio(build.Seconds(), m["snapshot.restore_hot_s"])
	rt := cold.Runtime()
	rt.CacheSize = serveMixedCache
	if err := cold.Configure(rt); err != nil {
		t.record("configure", err)
		return nil, err
	}
	return cold, nil
}

// traceCold measures the mapped query kernel: each standalone index saved,
// mapped back and queried; the first query pays the lazy decode.
func traceCold(h *harness, tr *tracer, t *tally, m map[string]float64, standalone []*cpindex.Index, qs []query) {
	mapped := make([]*cpindex.Mapped, len(standalone))
	for k, ix := range standalone {
		path := h.path(fmt.Sprintf("standalone-%d.cpi", k))
		err := ix.Save(path)
		var f *mmap.File
		if err == nil {
			f, err = mmap.Open(path)
		}
		var snap *snapshot.Mapped
		if err == nil {
			snap, err = snapshot.OpenMapped(f.Data, cpindex.SnapshotKind)
		}
		if err == nil {
			mapped[k], err = cpindex.OpenMapped(snap, f)
		}
		t.record("map_index", err)
		if err != nil {
			return
		}
	}
	var dst []cpindex.Match
	walk := func(q []uint32) {
		for _, mp := range mapped {
			dst, _, _ = mp.AppendAllWithStats(dst[:0], q) // errors only on corrupt bytes, checked at open
		}
	}
	m["cpindex.first_touch_ms"] = ms(tr.do(0, 0, "cpindex.first_touch", func(int) { walk(qs[0].Set) }))
	lat := make([]float64, len(qs))
	for i, q := range qs {
		start := time.Now()
		walk(q.Set)
		lat[i] = float64(time.Since(start)) / 1e3
	}
	m["cpindex.cold_query_us"] = median(lat)
}

// traceContain builds one containment index per shard range and probes it.
func traceContain(tr *tracer, m map[string]float64, sets [][]uint32, ranges [][2]int, qs []query) {
	sides := make([]*contain.Index, len(ranges))
	m["contain.build_s"] = tr.do(0, 0, "contain.build", func(int) {
		for k, r := range ranges {
			sides[k] = contain.Build(sets[r[0]:r[1]], contain.Options{Seed: shard.ContainSeed(serveSeed)})
		}
	}).Seconds()
	lat := make([]float64, len(qs))
	candidates := 0
	for i, q := range qs {
		start := time.Now()
		for _, side := range sides {
			candidates += len(side.Query(q.Set, containThreshold))
		}
		lat[i] = float64(time.Since(start)) / 1e3
	}
	m["contain.query_us"] = median(lat)
	m["contain.candidates_per_q"] = float64(candidates) / float64(len(qs))
}

// traceMisses times the ring on queries the cache has not seen, through a
// cold-tier ring: shard.query_us and shard.self_us for the mixed workload.
func traceMisses(m map[string]float64, ring *shard.Index, qs []query) {
	rt := ring.Runtime()
	cached := rt.CacheSize
	rt.CacheSize = 0
	if ring.Configure(rt) != nil {
		return
	}
	lat := make([]float64, len(qs))
	for i, q := range qs {
		start := time.Now()
		ring.QueryAllErr(q.Set)
		lat[i] = float64(time.Since(start)) / 1e3
	}
	m["shard.query_us"] = median(lat)
	m["shard.self_us"] = m["shard.query_us"] - m["cpindex.cold_query_us"]
	rt.CacheSize = cached
	ring.Configure(rt)
}

// traceWrites drives the write path of a ring in-process: adds that fill
// the side buffer, the adds that seal it, deletes, and one compaction.
func traceWrites(tr *tracer, m map[string]float64, ring *shard.Index, sh shape, seed uint64) {
	r := newRNG(seed, "trace-adds")
	var addUs, sealMs, delUs []float64
	next := 0
	for i := 0; i < 4*serveMixedMerge/serveAddSets; i++ {
		sets := make([][]uint32, serveAddSets)
		for k := range sets {
			sets[k] = drawSet(r, sh.tokens, sh.size(r), nil)
		}
		before := ring.Stats().Merges
		var d time.Duration
		d = tr.do(0, 0, "shard.add", func(int) { ring.Add(sets) })
		if ring.Stats().Merges > before {
			sealMs = append(sealMs, ms(d))
		} else {
			addUs = append(addUs, float64(d)/1e3/serveAddSets)
		}
		ids := make([]int, serveDeleteIDs)
		for k := range ids {
			ids[k] = next
			next++
		}
		delUs = append(delUs, float64(tr.do(0, 0, "shard.delete", func(int) { ring.DeleteBatch(ids) }))/1e3)
	}
	m["shard.add_us_per_set"] = median(addUs)
	m["shard.seal_ms"] = median(sealMs)
	m["shard.delete_us"] = median(delUs)
	m["shard.compact_ms"] = ms(tr.do(0, 0, "shard.compact", func(id int) {
		res := ring.Compact()
		tr.count(id, "merged", float64(res.Merged))
	}))
}
