package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"repro/internal/race"
	"strconv"
	"strings"
	"testing"
	"time"
)

// expositionLine matches every valid line of the Prometheus text format —
// the same shape the metrics package pins for itself, re-checked here on
// the full serving registry.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$`)

// scrapeMetrics GETs /metrics and validates status, content type and that
// every line parses as exposition format.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	return text
}

// TestMetricsExposition drives every serving operation over the wire and
// checks the scrape covers the whole catalog: latency histograms per
// operation, the candidate pipeline, compaction, cache, exec and shape
// series — and that the query histogram's cumulative buckets are monotone.
func TestMetricsExposition(t *testing.T) {
	sets, _ := workload(300, 0.8, 901)
	ix := Build(sets, 0.5, exactOptions(2, 40, 93))
	ix.Configure(RuntimeOptions{CacheSize: 16})
	ts := httptest.NewServer(NewServer(ix))
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/v1/query", Request{Set: sets[1]}, nil)
	post(t, ts.URL+"/v1/query", Request{Set: sets[1], All: true}, nil)
	post(t, ts.URL+"/v1/query_batch", batchRequest{Sets: sets[:5]}, nil)
	extra, _ := workload(90, 0.8, 95)
	var added []int
	for i := 0; i < len(extra); i += 40 {
		end := min(i+40, len(extra))
		var ar addResponse
		post(t, ts.URL+"/v1/add", batchRequest{Sets: extra[i:end]}, &ar)
		added = append(added, ar.IDs...)
	}
	// Delete sealed appends: their tombstones are what compaction reclaims.
	post(t, ts.URL+"/v1/delete", deleteRequest{IDs: added[:3]}, nil)
	post(t, ts.URL+"/v1/compact", struct{}{}, nil)

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`cps_query_seconds_count{op="query_all"}`,
		`cps_query_seconds_count{op="query_batch"}`,
		`cps_query_seconds_bucket{op="query_all",le="`,
		`cps_mutation_seconds_count{op="add"}`,
		`cps_mutation_seconds_count{op="delete"}`,
		"cps_candidates_total",
		"cps_verified_total",
		"cps_rejected_total",
		"cps_slow_queries_total",
		"cps_compaction_seconds_count",
		"cps_compaction_merged_shards_total",
		"cps_compaction_reclaimed_ids_total",
		"cps_cache_entries",
		"cps_cache_hits_total",
		"cps_cache_misses_total",
		"cps_exec_tasks_total",
		"cps_exec_steals_total",
		"cps_exec_queue_depth",
		"cps_index_sets",
		"cps_index_shards",
		"cps_index_buffered",
		"cps_index_tombstones",
		"cps_index_generation",
		"cps_index_version",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A best-of query is the all-matches query reduced to its top match, so
	// it is timed as one: there is no op="query" series.
	if strings.Contains(text, `op="query"`) {
		t.Error(`exposition still has an op="query" series`)
	}

	// The instrumented traffic must actually land in the series.
	mustSample := func(pattern string, atLeast uint64) {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("no sample matches %q", pattern)
			return
		}
		v, _ := strconv.ParseUint(m[1], 10, 64)
		if v < atLeast {
			t.Errorf("sample %q = %d, want >= %d", pattern, v, atLeast)
		}
	}
	mustSample(`(?m)^cps_query_seconds_count\{op="query_all"\} ([0-9]+)$`, 2)
	mustSample(`(?m)^cps_candidates_total ([0-9]+)$`, 1)
	mustSample(`(?m)^cps_verified_total ([0-9]+)$`, 1)
	mustSample(`(?m)^cps_compaction_merged_shards_total ([0-9]+)$`, 2)
	mustSample(`(?m)^cps_compaction_reclaimed_ids_total ([0-9]+)$`, 3)
	mustSample(`(?m)^cps_index_sets ([0-9]+)$`, uint64(len(sets)))

	// Cumulative histogram buckets must be monotone with increasing bounds.
	bucketLine := regexp.MustCompile(`^cps_query_seconds_bucket\{op="query_all",le="([^"]+)"\} ([0-9]+)$`)
	prev, prevBound, n := uint64(0), -1.0, 0
	for _, line := range strings.Split(text, "\n") {
		m := bucketLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n++
		bound := 1e300
		if m[1] != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(m[1], 64); err != nil {
				t.Fatalf("bad bucket bound %q: %v", m[1], err)
			}
		}
		if bound <= prevBound {
			t.Errorf("bucket bounds not increasing: %v after %v", bound, prevBound)
		}
		cum, _ := strconv.ParseUint(m[2], 10, 64)
		if cum < prev {
			t.Errorf("cumulative bucket count decreased: %d after %d", cum, prev)
		}
		prev, prevBound = cum, bound
	}
	if n == 0 {
		t.Error("no cps_query_seconds bucket lines found")
	}
}

// TestMetricsCounterDeltas pins that each operation books exactly its own
// histogram and that the candidate pipeline flows into the shared counters.
func TestMetricsCounterDeltas(t *testing.T) {
	sets, _ := workload(400, 0.8, 911)
	x := Build(sets, 0.5, exactOptions(2, 30, 97))
	m := x.metrics
	if m == nil {
		t.Fatal("Build left the index uninstrumented")
	}

	mustQuery(t, x, sets[3])
	if got := m.queryLat[kindAll].Count(); got != 1 {
		t.Errorf("query_all histogram count = %d after a best-of query, want 1", got)
	}
	if c, v := m.cand.Candidates.Load(), m.cand.Verified.Load(); c == 0 || v == 0 {
		t.Errorf("candidate pipeline after Query: candidates=%d verified=%d, want both > 0", c, v)
	}

	x.QueryAllErr(sets[3])
	if got := m.queryLat[kindAll].Count(); got != 2 {
		t.Errorf("query_all histogram count = %d, want 2", got)
	}
	x.QueryBatchErr(sets[:4])
	if got := m.queryLat[kindBatch].Count(); got != 1 {
		t.Errorf("query_batch histogram count = %d, want 1 (one batch, not one per query)", got)
	}

	extra, _ := workload(70, 0.8, 99)
	var ids []int
	adds := uint64(0)
	for i := 0; i < len(extra); i += 30 {
		end := min(i+30, len(extra))
		ids = append(ids, x.Add(extra[i:end])...)
		adds++
	}
	if got := m.addLat.Count(); got != adds {
		t.Errorf("add histogram count = %d, want %d (one per Add call)", got, adds)
	}
	x.DeleteBatch(ids[:8])
	if got := m.deleteLat.Count(); got != 1 {
		t.Errorf("delete histogram count = %d, want 1", got)
	}

	res := x.Compact()
	if got := m.compactLat.Count(); got != 1 {
		t.Errorf("compaction histogram count = %d, want 1", got)
	}
	if res.Merged == 0 || res.Reclaimed == 0 {
		t.Fatalf("compaction setup did no work: %+v", res)
	}
	if got := m.compactMerged.Value(); got != uint64(res.Merged) {
		t.Errorf("merged counter = %d, result says %d", got, res.Merged)
	}
	if got := m.compactReclaimed.Value(); got != uint64(res.Reclaimed) {
		t.Errorf("reclaimed counter = %d, result says %d", got, res.Reclaimed)
	}
}

// TestQueryMetricsAllocs pins that instrumentation kept the serving-path
// allocation contract with the cache off: a best-of Search with metrics
// attached (as Build always attaches them now) allocates nothing at steady
// state — latency observation and the candidate counters are atomic adds
// on fixed storage, stats ride the pooled scratch, and the merged answer
// lies in a pooled buffer that the reduction to the top match reads in
// place. The all-matches path allocates exactly one slice, the answer at
// its exact size (QueryAllErr's doc states the number).
func TestQueryMetricsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	sets, _ := workload(1500, 0.8, 921)
	x := Build(sets, 0.5, &Options{Shards: 3, Seed: 17})
	if x.metrics == nil {
		t.Fatal("Build left the index uninstrumented")
	}
	for i := 0; i < 30; i++ {
		mustQuery(t, x, sets[i])
	}
	before := x.metrics.cand.Candidates.Load()
	qi := 0
	if n := testing.AllocsPerRun(100, func() {
		mustQuery(t, x, sets[qi%700])
		qi++
	}); n != 0 {
		t.Errorf("instrumented Query allocates %v/op, want 0", n)
	}
	if x.metrics.cand.Candidates.Load() == before {
		t.Error("candidate counter did not advance during the alloc gate")
	}
	if x.metrics.queryLat[kindAll].Count() == 0 {
		t.Error("query histogram did not advance during the alloc gate")
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(x.QueryAllErr(sets[qi%700])) == 0 {
			t.Fatal("a self-query matched nothing")
		}
		qi++
	}); n != 1 {
		t.Errorf("instrumented QueryAllErr allocates %v/op, want 1 (the answer)", n)
	}
}

// TestHealthEndpoints: /v1/healthz and /v1/readyz both answer 200 with the
// health report as JSON body, ready — for a built index, and for hot and cold
// restores before their first query (a child process's harness waits for
// exactly that before it times anything).
func TestHealthEndpoints(t *testing.T) {
	x, dir, _ := saveWorkload(t)
	indexes := map[string]*Index{"built": x}
	for _, tier := range []Tier{TierHot, TierCold} {
		y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
		if err != nil {
			t.Fatal(err)
		}
		indexes["restored "+string(tier)] = y
	}
	for name, ix := range indexes {
		ts := httptest.NewServer(NewServer(ix))
		for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var h HealthStatus
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatalf("%s %s body: %v", name, path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s status %d, want 200", name, path, resp.StatusCode)
			}
			if !strings.Contains(string(body), `"ready":true`) || h.Shards != ix.Stats().Shards {
				t.Errorf("%s %s report %s, want ready with %d shards", name, path, body, ix.Stats().Shards)
			}
		}
		ts.Close()
	}
}

// TestServerDebugTrace: "debug":true returns the per-shard breakdown with
// the answer, a plain request stays trace-free on the wire, and a cached
// answer's trace reports the hit with no shard entries.
func TestServerDebugTrace(t *testing.T) {
	ts, sets := newTestServer(t)

	var qr queryResponse
	post(t, ts.URL+"/v1/query", queryRequest{Request: Request{Set: sets[7], All: true}, Debug: true}, &qr)
	if !qr.Found || qr.Trace == nil {
		t.Fatalf("debug query response %+v", qr)
	}
	tr := qr.Trace
	if tr.CacheHit || tr.TotalNs <= 0 || tr.Candidates == 0 || tr.Verified == 0 {
		t.Errorf("trace totals %+v, want a timed uncached query with candidates", tr)
	}
	// 3 local ring shards plus the trailing buffer entry.
	if len(tr.Shards) != 4 {
		t.Fatalf("%d trace entries, want 4: %+v", len(tr.Shards), tr.Shards)
	}
	locals := 0
	for _, e := range tr.Shards[:3] {
		if e.Kind == "local" {
			locals++
		}
	}
	if locals != 3 || tr.Shards[3].Kind != "buffer" {
		t.Errorf("trace shape wrong: %+v", tr.Shards)
	}

	// Containment queries run the same pipeline, so "debug" traces them too.
	var cr queryResponse
	post(t, ts.URL+"/v1/query", queryRequest{
		Request: Request{Set: sets[7], Mode: ModeContainment, Threshold: 0.8}, Debug: true}, &cr)
	if !cr.Found || cr.Trace == nil || cr.Trace.TotalNs <= 0 || len(cr.Trace.Shards) != 4 || cr.Trace.Candidates == 0 {
		t.Fatalf("containment debug response %+v trace %+v", cr, cr.Trace)
	}

	// The answer must be the normal answer: same matches as an untraced
	// request, and no trace key on the wire without debug.
	b, _ := json.Marshal(Request{Set: sets[7], All: true})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, present := raw["trace"]; present {
		t.Error("trace present on a non-debug response")
	}
	var plain queryResponse
	if err := json.Unmarshal(raw["matches"], &plain.Matches); err != nil {
		t.Fatal(err)
	}
	if len(plain.Matches) != len(qr.Matches) {
		t.Errorf("debug changed the answer: %d vs %d matches", len(qr.Matches), len(plain.Matches))
	}
}

// TestDebugTraceCacheHit: the second identical debug query is answered by
// the result cache — the trace says so and consults no shards.
func TestDebugTraceCacheHit(t *testing.T) {
	sets, _ := workload(300, 0.8, 931)
	ix := Build(sets, 0.5, &Options{Shards: 2, Seed: 19, Workers: 2})
	ix.Configure(RuntimeOptions{CacheSize: 8})
	ts := httptest.NewServer(NewServer(ix))
	t.Cleanup(ts.Close)

	var first, second queryResponse
	post(t, ts.URL+"/v1/query", queryRequest{Request: Request{Set: sets[2]}, Debug: true}, &first)
	post(t, ts.URL+"/v1/query", queryRequest{Request: Request{Set: sets[2]}, Debug: true}, &second)
	if first.Trace == nil || first.Trace.CacheHit {
		t.Fatalf("first trace %+v, want an uncached miss", first.Trace)
	}
	if second.Trace == nil || !second.Trace.CacheHit {
		t.Fatalf("second trace %+v, want a cache hit", second.Trace)
	}
	if len(second.Trace.Shards) != 0 {
		t.Errorf("cache hit consulted shards: %+v", second.Trace.Shards)
	}
	if first.ID != second.ID || first.Sim != second.Sim {
		t.Errorf("cache changed the answer: %+v vs %+v", first, second)
	}
}

// TestSlowQueryLog: with a threshold every real query exceeds, /query
// emits one structured line carrying the breakdown, and the slow-query
// counter advances; without the threshold, nothing is logged.
func TestSlowQueryLog(t *testing.T) {
	sets, _ := workload(300, 0.8, 941)
	ix := Build(sets, 0.5, &Options{Shards: 2, Seed: 23, Workers: 2})
	var buf bytes.Buffer
	srv := NewServerOpts(ix, &ServerOptions{
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var qr queryResponse
	post(t, ts.URL+"/v1/query", Request{Set: sets[5]}, &qr)
	if !qr.Found {
		t.Fatalf("query response %+v", qr)
	}
	line := buf.String()
	for _, want := range []string{"slow query", "query_size=", "total_ns=", "cache_hit=", "candidates=", "shards="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query log missing %q in: %s", want, line)
		}
	}
	if got := ix.metrics.slowQueries.Value(); got != 1 {
		t.Errorf("slow query counter = %d, want 1", got)
	}
	// The trace was captured for the log only — not sent to the client.
	if qr.Trace != nil {
		t.Error("slow-query tracing leaked the trace into a non-debug response")
	}
	// Containment queries reach the slow-query log like any other.
	buf.Reset()
	post(t, ts.URL+"/v1/query", Request{Set: sets[5], Mode: ModeContainment, Threshold: 0.8}, &qr)
	if line := buf.String(); !qr.Found || !strings.Contains(line, "slow query") || !strings.Contains(line, "mode=containment") {
		t.Errorf("containment query %+v logged: %s", qr, line)
	}
	if got := ix.metrics.slowQueries.Value(); got != 2 {
		t.Errorf("slow query counter = %d after the containment query, want 2", got)
	}

	// A server without the threshold logs nothing for the same traffic.
	var quiet bytes.Buffer
	srv2 := NewServerOpts(ix, &ServerOptions{Logger: slog.New(slog.NewTextHandler(&quiet, nil))})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	post(t, ts2.URL+"/v1/query", Request{Set: sets[5]}, nil)
	if quiet.Len() != 0 {
		t.Errorf("unconfigured server logged: %s", quiet.String())
	}
}

// TestDisableMetrics: DisableMetrics leaves /metrics unregistered while
// the rest of the server works.
func TestDisableMetrics(t *testing.T) {
	sets, _ := workload(100, 0.8, 951)
	ix := Build(sets, 0.5, &Options{Shards: 2, Seed: 29, Workers: 2})
	ts := httptest.NewServer(NewServerOpts(ix, &ServerOptions{DisableMetrics: true}))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics status %d with metrics disabled, want 404", resp.StatusCode)
	}
	var qr queryResponse
	post(t, ts.URL+"/v1/query", Request{Set: sets[0]}, &qr)
	if !qr.Found {
		t.Errorf("query on a metrics-disabled server: %+v", qr)
	}
}
