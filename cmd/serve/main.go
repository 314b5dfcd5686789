// Command serve runs the sharded similarity search service: it loads a
// dataset, partitions it into shards (each an independent Chosen Path
// index built in parallel on the execution layer), and serves queries,
// batch queries, incremental appends and deletes over HTTP/JSON.
//
// Usage:
//
//	serve -input catalogue.txt -threshold 0.6 [-addr :8321] [-shards 4]
//	      [-hash] [-merge 1024] [-trees 10] [-seed 42] [-workers N]
//	      [-data DIR] [-save-on-shutdown] [-auto-compact] [-tier T]
//	      [-cache N] [-pprof] [-metrics] [-slow-query D] [-access-log]
//
// Persistence: with -data, the service restores the index from DIR's
// snapshot (manifest + per-shard files) when one exists — restart cost
// becomes I/O instead of a rebuild — and otherwise builds from -input.
// With -save-on-shutdown it snapshots the live index (including buffered
// appends and tombstones) into DIR on graceful shutdown.
//
// Storage tiers: a tier is where a shard's trie and the token array behind
// its sets lie, and -tier picks it for the shards a restore opens. Either
// way the restore checksums and validates every shard file before the
// server listens, so no query can fail on a corrupt file. -tier hot, the
// default, then copies each shard's arrays to the heap; -tier cold leaves
// them memory-mapped and uses them where they are in the file — resident
// heap drops to the set headers and id maps, the file's pages live in the
// page cache, and every query, containment included, verifies against the
// mapped tokens at the hot tier's cost and answers byte-identically to it.
// The flag is a restore
// option: without -data it is a usage error, and when -data holds no
// snapshot yet the index is built on the heap. A shard keeps the tier it
// was opened in: shards that /v1/add seals or that compaction merges are
// built on the heap, so a cold ring that takes writes holds hot shards
// beside its cold ones until the next restart.
//
// Endpoints (errors are structured JSON {"error":..., "code":...}):
//
//	POST /v1/query        {"set":[1,2,3], "all":true, "debug":true}  one query (debug adds the per-shard trace)
//	POST /v1/query        {"set":[1,2,3], "mode":"containment", "threshold":0.8, "limit":10}
//	                                                    containment search: indexed sets holding ≥ threshold of the query
//	POST /v1/query_batch  {"sets":[[1,2,3],[4,5,6]]}    many queries, one round trip
//	POST /v1/add          {"sets":[[7,8,9]]}            append sets (no rebuild)
//	POST /v1/delete       {"ids":[3,17]}                tombstone sets
//	POST /v1/compact      merge small shards, reclaim tombstones (non-blocking for queries)
//	GET  /v1/stats                                      index shape snapshot
//	GET  /v1/metrics                                    Prometheus text exposition (disable with -metrics=false)
//	GET  /v1/healthz                                    liveness (always 200, health JSON body)
//	GET  /v1/readyz                                     readiness (200 once listening: the index is built or restored first)
//
// Observability: /v1/metrics exposes query/mutation latency histograms, the
// candidate pipeline counters, compaction, tier, cache and execution-layer
// metrics in the Prometheus text
// format. -slow-query 250ms logs one structured line (query size,
// per-shard timings, candidate counts, cache outcome) for every
// /v1/query over the threshold; the same breakdown is available per request with
// "debug":true. -access-log logs one line per HTTP request. All logging
// is structured log/slog on stderr.
//
// Performance: -cache N caches up to N hot query results (invalidated
// automatically by appends, deletes, seals and compactions; hit/miss
// counters appear in /v1/stats and /v1/metrics). -pprof
// mounts the net/http/pprof profiling endpoints under /debug/pprof/ on
// the serving listener — registered explicitly on the opt-in mux, so
// profiling endpoints exist only when asked for:
//
//	go tool pprof http://localhost:8321/debug/pprof/profile?seconds=10
//
// Compaction: every seal appends a small shard and every delete against a
// sealed shard leaves a tombstone, so a long-running service degrades
// without maintenance. With -auto-compact the index merges small shards
// and reclaims tombstones in the background after each seal; without it,
// POST /v1/compact runs one pass on demand. Either way queries keep being
// served from the old ring until the rebuilt shard swaps in.
//
// Example:
//
//	serve -input catalogue.txt -threshold 0.5 -data /var/lib/cps -save-on-shutdown &
//	curl -s localhost:8321/v1/query -d '{"set":[1,2,3],"all":true}'
//	curl -s localhost:8321/v1/metrics | grep cps_query_seconds
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	ssjoin "repro"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// logger is the process-wide structured logger: text handler on stderr,
// shared with the shard server's slow-query log.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		input     = flag.String("input", "", "catalogue dataset file (required unless -data has a snapshot)")
		addr      = flag.String("addr", ":8321", "listen address")
		threshold = flag.Float64("threshold", 0.5, "Jaccard similarity threshold in (0,1); ignored when restoring from -data")
		shards    = flag.Int("shards", 4, "number of primary shards; ignored when restoring from -data")
		hashPart  = flag.Bool("hash", false, "partition by id hash instead of contiguous ranges; ignored when restoring from -data")
		merge     = flag.Int("merge", 1024, "buffered appends before the side shard is sealed into the ring; ignored when restoring from -data")
		trees     = flag.Int("trees", 0, "index trees per shard (0 = default 10); ignored when restoring from -data")
		seed      = flag.Uint64("seed", 42, "random seed; ignored when restoring from -data")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for builds, loads and batch queries")
		dataDir   = flag.String("data", "", "snapshot directory: restore from it on start if it holds a manifest")
		saveOnEnd = flag.Bool("save-on-shutdown", false, "snapshot the index into -data on graceful shutdown (requires -data)")
		autoComp  = flag.Bool("auto-compact", false, "background-compact small and tombstone-heavy shards after each seal")
		cacheSize = flag.Int("cache", 0, "hot-query result cache entries (0 disables; invalidated automatically on any mutation); when given, overrides a restored snapshot's cache size")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")
		metricsOn = flag.Bool("metrics", true, "expose Prometheus metrics on /v1/metrics")
		tierName  = flag.String("tier", "", "storage tier of the shards a restore opens, each validated in full either way: hot (copied to the heap; the default) or cold (memory-mapped, used in place); requires -data")
		slowQuery = flag.Duration("slow-query", 0, "log a structured line for /v1/query requests over this duration (0 disables)")
		accessLog = flag.Bool("access-log", false, "log one structured line per HTTP request")
	)
	flag.Parse()
	// given names the flags set on the command line, as opposed to left at
	// their defaults: -tier must come with -data, and a restored snapshot's
	// cache size yields only to a given -cache.
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if *saveOnEnd && *dataDir == "" {
		logger.Error("-save-on-shutdown requires -data")
		flag.Usage()
		os.Exit(2)
	}
	tier, err := shard.ParseTier(*tierName)
	if err != nil {
		logger.Error("bad -tier", "err", err)
		flag.Usage()
		os.Exit(2)
	}
	if given["tier"] && *dataDir == "" {
		logger.Error("-tier applies to a restore: it requires -data")
		flag.Usage()
		os.Exit(2)
	}

	var ix *shard.Index
	start := time.Now()
	if *dataDir != "" && manifestExists(*dataDir) {
		var err error
		ix, err = shard.LoadWithOptions(*dataDir, shard.LoadOptions{Workers: *workers, Tiering: tier})
		if err != nil {
			fatal("restore failed", "dir", *dataDir, "err", err)
		}
		st := ix.Stats()
		logger.Info("restored snapshot",
			"sets", st.Sets, "shards", st.Shards,
			"hot_shards", st.HotShards, "cold_shards", st.ColdShards,
			"partition", st.Partition,
			"dir", *dataDir, "seconds", time.Since(start).Seconds(), "addr", *addr)
	} else {
		if given["tier"] {
			logger.Info("no snapshot to restore: -tier applies only to restores, building on the heap",
				"dir", *dataDir, "tier", string(tier))
		}
		if *input == "" {
			logger.Error("-input is required (no snapshot in -data)")
			flag.Usage()
			os.Exit(2)
		}
		if *threshold <= 0 || *threshold >= 1 {
			fatal("threshold out of (0,1)", "threshold", *threshold)
		}
		catalogue, err := ssjoin.LoadSets(*input)
		if err != nil {
			fatal("loading input failed", "input", *input, "err", err)
		}
		opts := &shard.Options{
			Shards:         *shards,
			MergeThreshold: *merge,
			Trees:          *trees,
			Seed:           *seed,
			Workers:        *workers,
		}
		if *hashPart {
			opts.Partition = shard.PartitionHash
		}
		ix = shard.Build(catalogue, *threshold, opts)
		st := ix.Stats()
		logger.Info("indexed collection",
			"sets", st.Sets, "shards", st.Shards, "partition", st.Partition,
			"nodes", st.Nodes, "seconds", time.Since(start).Seconds(), "addr", *addr)
	}

	// One validated Configure call applies the runtime tuning. Flags
	// override what a restored snapshot carried: -auto-compact always wins,
	// -cache only when given (so a snapshot's persisted cache size survives a
	// plain restart, and -cache 0 turns it off).
	rt := ix.Runtime()
	rt.AutoCompact = *autoComp
	if given["cache"] {
		rt.CacheSize = *cacheSize
	}
	if err := ix.Configure(rt); err != nil {
		fatal("runtime configuration rejected", "err", err)
	}
	if rt.CacheSize > 0 {
		logger.Info("result cache enabled", "entries", rt.CacheSize)
	}

	var handler http.Handler = shard.NewServerOpts(ix, &shard.ServerOptions{
		SlowQuery:      *slowQuery,
		Logger:         logger,
		DisableMetrics: !*metricsOn,
	})
	if *slowQuery > 0 {
		logger.Info("slow-query log enabled", "threshold", *slowQuery)
	}
	if *pprofOn {
		// Register the pprof handlers explicitly on the opt-in mux (rather
		// than blank-importing net/http/pprof, whose side effect would put
		// them on http.DefaultServeMux even when -pprof is off).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof endpoints enabled", "prefix", *addr+"/debug/pprof/")
	}
	if *accessLog {
		handler = withAccessLog(handler)
	}
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers in; bodies are bounded by the handlers' byte limits.
	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	// SIGTERM is what kill, systemd, Docker and Kubernetes send: it must
	// drain and save exactly like an interactive interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", "err", err)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown so in-flight requests finish draining before exit.
	stop()
	<-drained
	if *saveOnEnd {
		saveStart := time.Now()
		if err := ix.Save(*dataDir); err != nil {
			fatal("save failed", "dir", *dataDir, "err", err)
		}
		st := ix.Stats()
		logger.Info("saved snapshot",
			"sets", st.Sets, "shards", st.Shards, "dir", *dataDir,
			"seconds", time.Since(saveStart).Seconds())
	}
	logger.Info("shut down")
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withAccessLog logs one structured line per request: method, path,
// status and duration.
func withAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", time.Since(start))
	})
}

// manifestExists reports whether dir holds a snapshot to restore.
func manifestExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapshot.ManifestFile))
	return err == nil
}

// fatal logs the error and exits.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
