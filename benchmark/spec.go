package main

// The benchmark's fixed vocabulary: workloads, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository root
// repeats the driver-facing part of this file; spec_test.go keeps the two
// in step.

import "encoding/json"

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures, set-up excluded.
const defaultSeconds = 20

// Workload names.
const (
	wJoinFlat   = "join_flat"
	wJoinSkew   = "join_skew"
	wServeRead  = "serve_read"
	wServeMixed = "serve_mixed"
)

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{wJoinFlat, "ssjoin on flat token frequencies (no rare tokens): the paper's favourable case, core join recursion dominates the sweep"},
	{wJoinSkew, "ssjoin on Zipf tokens and heavy-tailed set sizes: the robustness case, preprocessing dominates and core does little"},
	{wServeRead, "serve, hot tier, cache off, read-only unique queries: cpindex walk and verification dominate; cache, writes, snapshots bypassed"},
	{wServeMixed, "serve restored cold with cache, Zipf-repeated reads beside add/delete bursts and auto-compaction: cache, seal, compaction, mmap"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func isJoin(w string) bool { return w == wJoinFlat || w == wJoinSkew }

// Directions.
const (
	lower  = "lower"
	higher = "higher"
)

// metricSpec describes one gated metric. Bound is the share of the base
// median by which the metric may get worse before it counts as a
// regression; absolute marks the one metric (failed_ops_share) whose
// bound is an absolute difference because its healthy value is 0.
type metricSpec struct {
	Name      string
	Unit      string
	Better    string
	Bound     float64
	Absolute  bool
	Workloads []string
}

var (
	allWorkloads   = []string{wJoinFlat, wJoinSkew, wServeRead, wServeMixed}
	joinWorkloads  = []string{wJoinFlat, wJoinSkew}
	serveWorkloads = []string{wServeRead, wServeMixed}
)

// ledgerMetrics are the end-to-end metrics of the ledger, measured with
// tracing off; `run` prints them, result files store them and `compare`
// applies their bounds per (workload, metric). A bound is 10 % where the
// reference box's run-to-run spread allows it and 25 % where it does not
// (README.md, "Noise").
var ledgerMetrics = []metricSpec{
	{"setup_s", "s", lower, 0.25, false, allWorkloads},
	{"join_sweep_s", "s", lower, 0.10, false, joinWorkloads},
	{"join_recall", "ratio", higher, 0.02, false, joinWorkloads},
	{"peak_rss_mb", "MB", lower, 0.15, false, allWorkloads},
	{"query_p50_ms", "ms", lower, 0.10, false, serveWorkloads},
	{"query_p99_ms", "ms", lower, 0.25, false, serveWorkloads},
	{"query_recall", "ratio", higher, 0.02, false, serveWorkloads},
	{"closed_qps", "1/s", higher, 0.25, false, serveWorkloads},
	{"batch_qps", "sets/s", higher, 0.25, false, []string{wServeRead}},
	{"write_p50_ms", "ms", lower, 0.25, false, []string{wServeMixed}},
	{"failed_ops_share", "ratio", lower, 0, true, allWorkloads},
}

// driverMetrics are the end-to-end metrics of BENCHMARK.json. The driver
// wants every metric from every workload, none that is ever 0, and rejects
// the benchmark if any of them is noisier than its bound, so these are the
// few workload-neutral roles that hold steady on a shared 2-core box;
// projectDriver fills each from the ledger metric that plays the role in
// the workload. Tail latency and saturated throughput stay in the ledger
// (`compare` gates them and says "unresolved" when the box is too noisy);
// failed_ops_share travels as the attempted/failed counts of the result
// line.
var driverMetrics = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "recall", Unit: "ratio", Better: higher, Bound: 0.02},
	{Name: "op_ms", Unit: "ms", Better: lower, Bound: 0.25},
}

// projectDriver maps a run's ledger metrics onto the driver's roles:
// recall is join_recall or query_recall, and op_ms, the typical time of
// the workload's operation, is one threshold join over the saved index
// (join_sweep_s / 5) or one query under the reference rate (query_p50_ms).
func projectDriver(r *workloadResult) map[string]float64 {
	m := r.Metrics
	out := map[string]float64{"setup_s": m["setup_s"], "peak_rss_mb": m["peak_rss_mb"]}
	if isJoin(r.Workload) {
		out["recall"] = m["join_recall"]
		out["op_ms"] = 1000 * m["join_sweep_s"] / float64(len(sweepThresholds))
	} else {
		out["recall"] = m["query_recall"]
		out["op_ms"] = m["query_p50_ms"]
	}
	return out
}

// layerMetric is one per-layer metric of the traced run. They carry no
// bound: they explain an end-to-end change, they do not gate one.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// layerMetrics are the per-layer metrics of BENCHMARK.json, in the
// layers' order from input to answer. Better says which way an
// optimisation of the layer should move the number.
var layerMetrics = []layerMetric{
	{"dataset.parse_s", "s", lower},

	{"prep.build_s", "s", lower},
	{"prep.build_1w_s", "s", lower},
	{"minhash.sign_all_s", "s", lower},
	{"minhash.sign_ns_per_token", "ns", lower},
	{"sketch.sketch_all_s", "s", lower},
	{"prep.self_s", "s", lower},
	{"prep.save_s", "s", lower},
	{"prep.load_s", "s", lower},
	{"prep.index_bytes_per_set", "B", lower},

	{"core.join_l50_s", "s", lower},
	{"core.join_l70_s", "s", lower},
	{"core.join_l90_s", "s", lower},
	{"core.precandidates", "count", lower},
	{"core.candidates", "count", lower},
	{"core.results", "count", higher},
	{"core.filter_pass_ratio", "ratio", lower},
	{"core.verify_hit_ratio", "ratio", higher},
	{"core.nodes", "count", lower},
	{"core.max_depth", "count", lower},
	{"core.bruteforced_points", "count", lower},
	{"core.alloc_mb", "MB", lower},
	{"core.recall_exact", "ratio", higher},

	{"intset.verify_ns_per_pair", "ns", lower},
	{"intset.verify_early_exit_ratio", "ratio", higher},

	{"exec.join_speedup", "ratio", higher},
	{"exec.batch_speedup", "ratio", higher},
	{"exec.tasks", "count", lower},
	{"exec.steals", "count", lower},

	{"allpairs.join_s", "s", lower},
	{"allpairs.candidates", "count", lower},
	{"allpairs.speedup", "ratio", higher},

	{"cpindex.build_s", "s", lower},
	{"cpindex.nodes", "count", lower},
	{"cpindex.query_us", "us", lower},
	{"cpindex.query_best_us", "us", lower},
	{"cpindex.candidates_per_q", "count", lower},
	{"cpindex.verified_per_q", "count", lower},
	{"cpindex.rejected_per_q", "count", lower},
	{"cpindex.verify_hit_ratio", "ratio", higher},
	{"cpindex.cold_query_us", "us", lower},
	{"cpindex.first_touch_ms", "ms", lower},

	{"contain.build_s", "s", lower},
	{"contain.query_us", "us", lower},
	{"contain.candidates_per_q", "count", lower},

	{"shard.query_us", "us", lower},
	{"shard.self_us", "us", lower},
	{"shard.allocs_per_query", "count", lower},
	{"shard.allocs_per_batch_query", "count", lower},
	{"shard.cache_hit_ratio", "ratio", higher},
	{"shard.cache_hit_us", "us", lower},
	{"shard.add_us_per_set", "us", lower},
	{"shard.seal_ms", "ms", lower},
	{"shard.delete_us", "us", lower},
	{"shard.compact_ms", "ms", lower},
	{"shard.seals", "count", lower},
	{"shard.compactions", "count", lower},
	{"shard.reclaimed", "count", higher},

	{"snapshot.save_s", "s", lower},
	{"snapshot.restore_hot_s", "s", lower},
	{"snapshot.restore_cold_s", "s", lower},
	{"snapshot.bytes_per_input_byte", "ratio", lower},
	{"snapshot.build_over_restore_hot", "ratio", higher},

	{"server.handle_us", "us", lower},
	{"server.self_us", "us", lower},
	{"server.allocs_per_request", "count", lower},
	{"server.net_us", "us", lower},
	{"server.best_p50_ms", "ms", lower},
	{"server.contain_p50_ms", "ms", lower},
	{"server.write_max_ms", "ms", lower},
	{"server.rate_ok_qps", "1/s", higher},
	{"server.late_share", "ratio", lower},

	{"metrics.scrape_ms", "ms", lower},
	{"metrics.series", "count", lower},

	{"trace.overhead_pct", "%", lower},
	{"loadgen.lag_p99_ms", "ms", lower},
}

func unitOf(name string) string {
	for _, m := range ledgerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func ledgerSpec(name string) (metricSpec, bool) {
	for _, m := range ledgerMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON renders the driver-facing part of this file as the
// BENCHMARK.json the repository root carries (`benchmark spec` prints it).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []endToEnd `json:"end_to_end"`
		PerLayer   []perLayer `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range driverMetrics {
		doc.EndToEnd = append(doc.EndToEnd, endToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, perLayer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(b, '\n')
}
