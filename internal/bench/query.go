package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/cpindex"
	"repro/internal/shard"
)

// QueryRow is one microbenchmark measurement of the point-query path:
// ns/op and allocs/op for one (scope, op, cache) cell, measured with
// testing.Benchmark so the numbers mean the same thing as
// `go test -bench`. The rows are the BENCH_query.json artifact recorded
// by `make bench-micro` and checked in CI: every cell's answers must be
// identical to its reference's (for cpindex the same index after an
// Encode/Decode round trip, for shard the cache-off ring), and the
// cpindex Query/QueryAll cells must report zero allocations per op — the
// query kernel's steady-state contract.
type QueryRow struct {
	Dataset string `json:"dataset"`
	// Scope is "cpindex" (one index, the per-shard engine) or "shard"
	// (a ShardedIndex with the full merge/tombstone/cache machinery).
	Scope string `json:"scope"`
	// Op is Query (best match), QueryAll (all matches) or QueryBatch
	// (whole query set in one call; ns/op is per batch, QPS per query).
	Op string `json:"op"`
	// Cache reports whether the hot-query result cache was enabled; the
	// benchmark loop cycles through the query set repeatedly, so a warm
	// cache answers most ops from memory.
	Cache       bool    `json:"cache"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// QPS is queries answered per second (for QueryBatch, batch size ×
	// batches per second).
	QPS float64 `json:"qps"`
	// Identical reports whether this cell's answers — checked cold and
	// again warm, outside the timed loop — equal its reference's. One flag name across every bench artifact keeps
	// the CI gate uniform.
	Identical bool `json:"identical_to_sequential"`
}

// RunQueryBench measures the point-query microbenchmarks: every set of
// each workload queried back against its own index (λ=0.5), at the
// cpindex level and across the cache dimension at the shard level. Builds are deterministic, so every cell of a workload
// queries the same logical structure and exact answer comparison is
// meaningful.
func RunQueryBench(workloads []Workload, cfg Config, progress io.Writer) []QueryRow {
	const lambda = 0.5
	var rows []QueryRow
	emit := func(r QueryRow) {
		rows = append(rows, r)
		if progress != nil {
			fmt.Fprintf(progress, "query    %-12s %-7s %-10s cache=%-5v ns/op=%10.0f allocs/op=%-3d identical=%v\n",
				r.Dataset, r.Scope, r.Op, r.Cache, r.NsPerOp, r.AllocsPerOp, r.Identical)
		}
	}
	for _, w := range workloads {
		queries := w.Sets
		runCpindex(w.Name, queries, lambda, cfg, emit)
		runShard(w.Name, queries, lambda, cfg, emit)
	}
	return rows
}

// queryBest is one Query result captured for equality checks.
type queryBest struct {
	id  int
	sim float64
	ok  bool
}

// runCpindex measures a single cpindex.Index, checked against its own
// Encode/Decode round trip.
func runCpindex(dataset string, queries [][]uint32, lambda float64, cfg Config, emit func(QueryRow)) {
	ix := cpindex.Build(queries, lambda, &cpindex.Options{Seed: cfg.Seed})

	answers := func(ix *cpindex.Index) ([]queryBest, [][]cpindex.Match) {
		best := make([]queryBest, len(queries))
		all := make([][]cpindex.Match, len(queries))
		for i, q := range queries {
			id, sim, ok := ix.Query(q)
			best[i] = queryBest{id, sim, ok}
			all[i] = ix.QueryAll(q)
		}
		return best, all
	}
	gotBest, gotAll := answers(ix) // doubles as scratch-pool warmup
	identical := false
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err == nil {
		if decoded, err := cpindex.Decode(&buf); err == nil {
			refBest, refAll := answers(decoded)
			identical = equalBest(gotBest, refBest) && equalBatches(gotAll, refAll)
		}
	}

	emit(benchCell(dataset, "cpindex", "Query", false, identical, 1,
		queries, func(qi int) { ix.Query(queries[qi]) }))
	// QueryAll's steady-state form is AppendAll into a reused buffer —
	// QueryAll itself is AppendAll(nil, q), so the only allocation it
	// adds is the caller-owned result slice this loop amortizes away.
	var dst []cpindex.Match
	emit(benchCell(dataset, "cpindex", "QueryAll", false, identical, 1,
		queries, func(qi int) { dst = ix.AppendAll(dst[:0], queries[qi]) }))
}

// runShard measures a ShardedIndex-level shard.Index with the cache off
// and on, all ops, against the cache-off answers.
func runShard(dataset string, queries [][]uint32, lambda float64, cfg Config, emit func(QueryRow)) {
	var refBest []queryBest
	var refAll, refBatch [][]cpindex.Match
	for _, cache := range []bool{false, true} {
		opts := &shard.Options{Shards: 4, Seed: cfg.Seed}
		if cache {
			opts.CacheSize = 2 * len(queries)
		}
		ix := shard.Build(queries, lambda, opts)

		// All-local rings never hit the remote-topology error, so the
		// error-returning primaries are used with the error discarded.
		answers := func() ([]queryBest, [][]cpindex.Match, [][]cpindex.Match) {
			best := make([]queryBest, len(queries))
			all := make([][]cpindex.Match, len(queries))
			for i, q := range queries {
				id, sim, ok, _ := ix.QueryErr(q)
				best[i] = queryBest{id, sim, ok}
				all[i], _ = ix.QueryAllErr(q)
			}
			batch, _ := ix.QueryBatchErr(queries)
			return best, all, batch
		}
		// Two passes: the first is the cold (cache-filling) one, the
		// second answers warm — both must match the uncached reference.
		coldBest, coldAll, coldBatch := answers()
		warmBest, warmAll, warmBatch := answers()
		if !cache {
			refBest, refAll, refBatch = coldBest, coldAll, coldBatch
		}
		identical := equalBest(coldBest, refBest) && equalBatches(coldAll, refAll) &&
			equalBatches(coldBatch, refBatch) &&
			equalBest(warmBest, refBest) && equalBatches(warmAll, refAll) &&
			equalBatches(warmBatch, refBatch)

		emit(benchCell(dataset, "shard", "Query", cache, identical, 1,
			queries, func(qi int) { ix.QueryErr(queries[qi]) }))
		emit(benchCell(dataset, "shard", "QueryAll", cache, identical, 1,
			queries, func(qi int) { ix.QueryAllErr(queries[qi]) }))
		emit(benchCell(dataset, "shard", "QueryBatch", cache, identical, len(queries),
			queries, func(int) { ix.QueryBatchErr(queries) }))
	}
}

// benchCell runs one measurement with testing.Benchmark, cycling op over
// the query indices, and packages the result. queriesPerOp scales QPS
// for batch ops whose single op answers the whole query set.
func benchCell(dataset, scope, op string, cache, identical bool,
	queriesPerOp int, queries [][]uint32, call func(qi int)) QueryRow {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		qi := 0
		for i := 0; i < b.N; i++ {
			call(qi)
			qi++
			if qi == len(queries) {
				qi = 0
			}
		}
	})
	ns := float64(res.NsPerOp())
	row := QueryRow{
		Dataset:     dataset,
		Scope:       scope,
		Op:          op,
		Cache:       cache,
		NsPerOp:     ns,
		AllocsPerOp: res.AllocsPerOp(),
		Identical:   identical,
	}
	if ns > 0 {
		row.QPS = float64(queriesPerOp) * 1e9 / ns
	}
	return row
}

func equalBest(a, b []queryBest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteQueryJSON emits the microbenchmark rows as indented JSON — the
// BENCH_query.json artifact of `make bench-micro`. CI fails the bench
// job if any identical_to_sequential flag is false or any cpindex
// Query/QueryAll row reports nonzero allocs/op.
func WriteQueryJSON(w io.Writer, rows []QueryRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		GOMAXPROCS int        `json:"gomaxprocs"`
		Rows       []QueryRow `json:"rows"`
	}{runtime.GOMAXPROCS(0), rows})
}

// PrintQuery writes the microbenchmark table for human consumption.
func PrintQuery(w io.Writer, rows []QueryRow) {
	fmt.Fprintf(w, "%-12s %-8s %-10s %-6s %14s %10s %12s %10s\n",
		"Dataset", "scope", "op", "cache", "ns/op", "allocs/op", "qps", "identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %-10s %-6v %14.0f %10d %12.0f %10v\n",
			r.Dataset, r.Scope, r.Op, r.Cache, r.NsPerOp, r.AllocsPerOp, r.QPS, r.Identical)
	}
}
