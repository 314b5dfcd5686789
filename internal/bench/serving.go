package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/cpindex"
	"repro/internal/shard"
)

// ServingRow is one measurement of the serving benchmark: batch-query
// throughput of a ShardedIndex for one (dataset, shard count, worker
// count) cell, with a determinism check against the single-worker run of
// the same cell.
type ServingRow struct {
	Dataset string  `json:"dataset"`
	Lambda  float64 `json:"lambda"`
	Shards  int     `json:"shards"`
	Workers int     `json:"workers"`
	// Topology is "local" (all shards in-process) or "remote" (every
	// primary shard moved to one of two in-process HTTP peers, 2-way
	// replicated, no local copies — the distributed serving path).
	Topology string  `json:"topology"`
	Queries  int     `json:"queries"`
	Seconds  float64 `json:"seconds"`
	// QPS is batch-query throughput: queries answered per second.
	QPS float64 `json:"qps"`
	// BuildSeconds is the sharded index construction time for this cell
	// (outside the query timing); remote cells include shard shipping.
	BuildSeconds float64 `json:"build_seconds"`
	// Matches is the total match count across the batch.
	Matches int `json:"matches"`
	// Identical reports whether this cell's full result lists equal the
	// single-worker local results of the same (dataset, shards) cell —
	// the serving layer's determinism contract (and, for remote cells,
	// the local/remote equivalence contract), verified every run.
	Identical bool `json:"identical_to_sequential"`
}

// DefaultShardCounts is the shard ladder of the serving benchmark.
func DefaultShardCounts() []int {
	return []int{1, 2, 4, 8}
}

// RunServingBench measures ShardedIndex.QueryBatch throughput: every set
// of each workload is queried back against the sharded index (λ=0.5,
// QueryAll semantics) in one batch, across shard and worker counts and
// both topologies — all-local, and distributed with every primary shard
// moved to one of two in-process HTTP peers (2-way replication, no local
// copies), so the recorded trajectory covers the remote fan-out/merge
// path and its equivalence flag. The index is rebuilt per cell — builds
// are deterministic, so the ladder queries identical structures and
// result equality is meaningful.
func RunServingBench(workloads []Workload, shardCounts, workerCounts []int, cfg Config, progress io.Writer) []ServingRow {
	const lambda = 0.5
	var rows []ServingRow
	for _, w := range workloads {
		for _, shards := range shardCounts {
			var base [][]cpindex.Match
			measure := func(workers int, topology string, build func(opts *shard.Options) (*shard.Index, error)) {
				opts := &shard.Options{Shards: shards, Seed: cfg.Seed, Workers: workers}
				var ix *shard.Index
				var buildErr error
				buildT := timed(1, func() { ix, buildErr = build(opts) })
				var results [][]cpindex.Match
				var queryErr error
				var d time.Duration
				if buildErr == nil {
					d = timed(cfg.Runs, func() {
						results, queryErr = ix.QueryBatchErr(w.Sets)
					})
				}
				if err := buildErr; err != nil || queryErr != nil {
					if err == nil {
						err = queryErr
					}
					// A failed cell still emits its row — with the
					// equivalence flag false, so the CI gate fails loudly
					// instead of silently losing the topology's coverage.
					rows = append(rows, ServingRow{
						Dataset: w.Name, Lambda: lambda, Shards: shards,
						Workers: workers, Topology: topology, Queries: len(w.Sets),
					})
					if progress != nil {
						fmt.Fprintf(progress, "serving  %-12s shards=%-2d workers=%-2d topology=%s FAILED: %v\n",
							w.Name, shards, workers, topology, err)
					}
					return
				}
				row := ServingRow{
					Dataset:      w.Name,
					Lambda:       lambda,
					Shards:       shards,
					Workers:      workers,
					Topology:     topology,
					Queries:      len(w.Sets),
					Seconds:      d.Seconds(),
					QPS:          float64(len(w.Sets)) / d.Seconds(),
					BuildSeconds: buildT.Seconds(),
				}
				for _, ms := range results {
					row.Matches += len(ms)
				}
				if base == nil {
					base = results
				}
				row.Identical = equalBatches(base, results)
				rows = append(rows, row)
				if progress != nil {
					fmt.Fprintf(progress, "serving  %-12s shards=%-2d workers=%-2d topology=%-6s qps=%10.0f matches=%-7d identical=%v\n",
						w.Name, shards, workers, topology, row.QPS, row.Matches, row.Identical)
				}
			}
			for _, workers := range workerCounts {
				measure(workers, "local", func(opts *shard.Options) (*shard.Index, error) {
					return shard.Build(w.Sets, lambda, opts), nil
				})
			}
			// The distributed ladder: two in-process peers, each primary
			// shard shipped to both (2-way replication) with the local
			// copies released, so every answer crosses the wire. The base
			// results are the single-worker local cell's — the Identical
			// flag is the local/remote equivalence contract in CI.
			peerA := httptest.NewServer(shard.NewServer(shard.Build(nil, lambda, &shard.Options{})))
			peerB := httptest.NewServer(shard.NewServer(shard.Build(nil, lambda, &shard.Options{})))
			peers := []string{peerA.URL, peerB.URL}
			for _, workers := range workerCounts {
				measure(workers, "remote", func(opts *shard.Options) (*shard.Index, error) {
					ix := shard.Build(w.Sets, lambda, opts)
					err := ix.Distribute(peers, &shard.DistributeOptions{Replicas: 2, KeepLocal: false})
					return ix, err
				})
			}
			peerA.Close()
			peerB.Close()
		}
	}
	return rows
}

// PlacementChurn is the placement-GC soak recorded alongside the serving
// rows: a distributed index driven through repeated seal + compact +
// re-distribute rounds against two live peers, then audited. GCClean is
// the control-plane contract — after the churn every peer hosts exactly
// the keys of the current ring (no superseded key survives) and the
// coordinator's registry tracks exactly those keys. Identical is the
// usual byte-identity contract against the all-local twin that saw the
// same mutations. CI gates on both flags.
type PlacementChurn struct {
	Dataset string  `json:"dataset"`
	Lambda  float64 `json:"lambda"`
	Rounds  int     `json:"rounds"`
	// RingKeys is the final remote-backed ring size; HostedA/HostedB the
	// key counts actually held by the two peers (each must equal RingKeys
	// under 2-way replication); TrackedKeys the coordinator registry size.
	RingKeys    int `json:"ring_keys"`
	HostedA     int `json:"hosted_a"`
	HostedB     int `json:"hosted_b"`
	TrackedKeys int `json:"tracked_keys"`
	// Seconds is the wall time of the whole churn (builds, shipping,
	// compactions and the final audit queries).
	Seconds   float64 `json:"seconds"`
	GCClean   bool    `json:"placement_gc_clean"`
	Identical bool    `json:"identical_to_sequential"`
}

// RunPlacementChurn drives the placement control plane through the load
// pattern it exists for: build over two thirds of the workload,
// distribute to two in-process peers (2-way replication, no local
// copies), then churn the rest through seal-sized Adds with every third
// id deleted, a Compact — which recalls remote victims over the verified
// fetch-back path and sweeps their hosted copies — and a re-distribution
// of the merged ring, every round. The audit at the end is the PR's
// acceptance criterion in executable form: peers host exactly the
// current ring's keys, and answers are byte-identical to the all-local
// reference index that saw the same mutation sequence.
func RunPlacementChurn(w Workload, cfg Config, progress io.Writer) PlacementChurn {
	const lambda = 0.5
	const rounds = 4
	base := w.Sets[:2*len(w.Sets)/3]
	extra := w.Sets[2*len(w.Sets)/3:]
	slab := maxInt(len(extra)/rounds, 1)
	merge := maxInt(slab/3, 8)
	opts := func() *shard.Options {
		return &shard.Options{
			Shards:         2,
			MergeThreshold: merge,
			Trees:          2,
			LeafSize:       1 << 30,
			Seed:           cfg.Seed,
			Workers:        0,
		}
	}

	srvA := shard.NewServer(shard.Build(nil, lambda, &shard.Options{}))
	srvB := shard.NewServer(shard.Build(nil, lambda, &shard.Options{}))
	peerA := httptest.NewServer(srvA)
	peerB := httptest.NewServer(srvB)
	defer peerA.Close()
	defer peerB.Close()
	peers := []string{peerA.URL, peerB.URL}
	dopt := &shard.DistributeOptions{Replicas: 2, KeepLocal: false}

	out := PlacementChurn{Dataset: w.Name, Lambda: lambda, Rounds: rounds}
	local := shard.Build(base, lambda, opts())
	dist := shard.Build(base, lambda, opts())
	var identical = true
	elapsed := timed(1, func() {
		if err := dist.Distribute(peers, dopt); err != nil {
			if progress != nil {
				fmt.Fprintf(progress, "placement churn FAILED: initial Distribute: %v\n", err)
			}
			return
		}
		for round := 0; round < rounds; round++ {
			lo, hi := round*slab, (round+1)*slab
			if round == rounds-1 || hi > len(extra) {
				hi = len(extra)
			}
			if lo < hi {
				localIDs := local.Add(extra[lo:hi])
				distIDs := dist.Add(extra[lo:hi])
				for j := 0; j < len(localIDs); j += 3 {
					local.Delete(localIDs[j])
					dist.Delete(distIDs[j])
				}
			}
			local.Compact()
			dist.Compact()
			if err := dist.Distribute(peers, dopt); err != nil {
				if progress != nil {
					fmt.Fprintf(progress, "placement churn FAILED: round %d Distribute: %v\n", round, err)
				}
				return
			}
			want, err1 := local.QueryBatchErr(w.Sets)
			got, err2 := dist.QueryBatchErr(w.Sets)
			if err1 != nil || err2 != nil || !equalBatches(want, got) {
				identical = false
			}
		}
	})

	st := dist.Stats()
	keysA, keysB := srvA.HostedKeys(), srvB.HostedKeys()
	out.RingKeys = st.RemoteShards
	out.HostedA, out.HostedB = len(keysA), len(keysB)
	out.TrackedKeys = st.PlacementKeys
	out.Seconds = elapsed.Seconds()
	sameKeys := len(keysA) == len(keysB)
	for i := 0; sameKeys && i < len(keysA); i++ {
		sameKeys = keysA[i] == keysB[i]
	}
	out.GCClean = st.RemoteShards > 0 && sameKeys &&
		len(keysA) == st.RemoteShards &&
		st.PlacementKeys == st.RemoteShards
	out.Identical = identical && st.RemoteShards > 0
	if progress != nil {
		fmt.Fprintf(progress, "placement churn %-12s rounds=%d ring=%d hosted=%d/%d tracked=%d gc_clean=%v identical=%v\n",
			w.Name, out.Rounds, out.RingKeys, out.HostedA, out.HostedB, out.TrackedKeys, out.GCClean, out.Identical)
	}
	return out
}

// equalBatches reports whether two batch results are element-wise equal.
// Both are sorted by global id per query, so equality is positional.
func equalBatches(a, b [][]cpindex.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// WriteServingJSON emits the serving and compaction measurements as
// indented JSON — the BENCH_serving.json artifact recorded by
// `make bench` alongside BENCH_parallel.json. Both row arrays carry
// identical_to_sequential flags; CI fails the bench job if any is false.
// scrape, when non-nil, records the /metrics exposition check (see
// CheckMetricsExposition); CI requires its ok flag too. churn, when
// non-nil, records the placement-GC soak (see RunPlacementChurn); CI
// requires its placement_gc_clean flag. tiering, when non-nil, records
// the build/hot/cold restore comparison (see RunTieringBench); CI requires
// its tiering_identical flag, cold_restore_seconds <= hot_restore_seconds
// and hot_restore_seconds <= build_seconds.
func WriteServingJSON(w io.Writer, rows []ServingRow, compaction []CompactionRow, scrape *MetricsScrape, churn *PlacementChurn, tiering *TieringReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		GOMAXPROCS int             `json:"gomaxprocs"`
		Rows       []ServingRow    `json:"rows"`
		Compaction []CompactionRow `json:"compaction,omitempty"`
		Metrics    *MetricsScrape  `json:"metrics_scrape,omitempty"`
		Placement  *PlacementChurn `json:"placement_churn,omitempty"`
		Tiering    *TieringReport  `json:"tiering,omitempty"`
	}{runtime.GOMAXPROCS(0), rows, compaction, scrape, churn, tiering})
}

// PrintServing writes the serving table for human consumption.
func PrintServing(w io.Writer, rows []ServingRow) {
	fmt.Fprintf(w, "%-12s %7s %8s %-8s %8s %12s %9s %10s\n",
		"Dataset", "shards", "workers", "topology", "queries", "qps", "matches", "identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %8d %-8s %8d %12.0f %9d %10v\n",
			r.Dataset, r.Shards, r.Workers, r.Topology, r.Queries, r.QPS, r.Matches, r.Identical)
	}
}
