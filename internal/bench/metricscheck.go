package bench

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"

	"repro/internal/shard"
)

// MetricsScrape is the observability check recorded alongside the serving
// benchmark rows: the /metrics endpoint of an instrumented, distributed,
// churned index must serve valid Prometheus text exposition covering the
// full metric catalog. CI fails the bench job when OK is false, so a
// regression in the exposition format or a dropped series shows up on the
// PR that caused it.
type MetricsScrape struct {
	OK bool `json:"ok"`
	// Series is the number of sample lines scraped (not counting HELP/TYPE
	// headers).
	Series int `json:"series"`
	// Error says what failed when OK is false.
	Error string `json:"error,omitempty"`
}

// expositionLine matches one valid line of the Prometheus text format.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$`)

// scrapeRequired are the series families every instrumented index must
// expose after serving mixed traffic on a distributed topology.
var scrapeRequired = []string{
	"cps_query_seconds",
	"cps_mutation_seconds",
	"cps_candidates_total",
	"cps_verified_total",
	"cps_rejected_total",
	"cps_compaction_seconds",
	"cps_cache_hits_total",
	"cps_exec_tasks_total",
	"cps_index_sets",
	"cps_peer_rpc_seconds",
	"cps_peer_healthy",
}

// CheckMetricsExposition builds a small sharded index over the workload,
// distributes its shards to two in-process peers, drives every mutating
// and querying operation once, and scrapes GET /v1/metrics like a Prometheus
// server would — validating status, content type, every line's syntax and
// the presence of the whole metric catalog (including the per-peer
// series).
func CheckMetricsExposition(w Workload, cfg Config) MetricsScrape {
	const lambda = 0.5
	ix := shard.Build(w.Sets, lambda, &shard.Options{Shards: 2, Seed: cfg.Seed, MergeThreshold: 64, CacheSize: 64})

	peerA := httptest.NewServer(shard.NewServer(shard.Build(nil, lambda, &shard.Options{})))
	peerB := httptest.NewServer(shard.NewServer(shard.Build(nil, lambda, &shard.Options{})))
	defer peerA.Close()
	defer peerB.Close()
	if err := ix.Distribute([]string{peerA.URL, peerB.URL}, &shard.DistributeOptions{Replicas: 2, KeepLocal: true}); err != nil {
		return MetricsScrape{Error: fmt.Sprintf("distribute: %v", err)}
	}

	// Mixed traffic so every instrument has observations: queries (twice,
	// so the cache answers once), appends past the merge threshold,
	// deletes and one compaction pass.
	probes := w.Sets
	if len(probes) > 50 {
		probes = probes[:50]
	}
	for i := 0; i < 2; i++ {
		if _, err := ix.QueryBatchErr(probes); err != nil {
			return MetricsScrape{Error: fmt.Sprintf("query batch: %v", err)}
		}
	}
	ids := ix.Add(w.Sets[:min(len(w.Sets), 128)])
	ix.DeleteBatch(ids[:min(len(ids), 8)])
	ix.Compact()

	srv := httptest.NewServer(shard.NewServer(ix))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		return MetricsScrape{Error: fmt.Sprintf("scrape: %v", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return MetricsScrape{Error: fmt.Sprintf("scrape status %d", resp.StatusCode)}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return MetricsScrape{Error: fmt.Sprintf("scrape content type %q", ct)}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return MetricsScrape{Error: fmt.Sprintf("scrape body: %v", err)}
	}

	text := string(body)
	out := MetricsScrape{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			out.Error = fmt.Sprintf("invalid exposition line: %q", line)
			return out
		}
		if !strings.HasPrefix(line, "#") {
			out.Series++
		}
	}
	for _, name := range scrapeRequired {
		if !strings.Contains(text, name) {
			out.Error = fmt.Sprintf("series %s missing from scrape", name)
			return out
		}
	}
	out.OK = true
	return out
}
