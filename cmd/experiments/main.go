// Command experiments regenerates the tables and figures of the CPSJoin
// paper's evaluation (Section VI). Each subcommand prints the rows/series
// of one paper artifact; `all` runs everything.
//
// Usage:
//
//	experiments [-scale smoke|small|paper] [-runs 1] [-seed 42] <subcommand>
//
// Subcommands:
//
//	table1    dataset statistics                    (Table I)
//	table2    join times CP/MH/ALL at >=90% recall  (Table II)
//	fig2      CPSJoin speedup over AllPairs         (Figure 2)
//	fig3a     join time vs brute-force limit        (Figure 3a)
//	fig3b     join time vs epsilon                  (Figure 3b)
//	fig3c     join time vs sketch words             (Figure 3c)
//	table4    candidate statistics ALL vs CP        (Table IV)
//	tokens    TOKENS robustness progression         (Section VI-A.3)
//	ablation  stopping strategies                   (Section IV-C.5)
//	bayes     BayesLSH comparison                   (Section VI-A.2)
//	theory    depth/space bounds                    (Lemma 4, Remark 9)
//	parallel  join time vs -workers scaling         (Section VII; -format
//	          json emits the BENCH_parallel.json schema used by `make bench`)
//	serving   sharded-index batch-query throughput vs shards and workers,
//	          in both topologies — all-local and distributed over two
//	          in-process HTTP peers with every shard moved (the
//	          local/remote equivalence flag checked per cell) — plus the
//	          compaction churn workload (-format json emits the
//	          BENCH_serving.json schema with both row arrays)
//	compaction  add/delete churn, one Compact pass, post-compaction
//	          queries: ring shrinkage, reclaimed tombstones, and the
//	          equivalence/determinism flags (table view of the compaction
//	          rows inside BENCH_serving.json)
//	query     point-query microbenchmarks (Query / QueryAll / QueryBatch
//	          ns/op, allocs/op and qps) of one cpindex and of a sharded
//	          ring with the result cache off and on, every cell's answers
//	          checked identical to its reference (-format json emits the
//	          BENCH_query.json schema used by `make bench-micro`)
//	accuracy  containment-search accuracy: precision/recall/F1 of the
//	          sharded index's containment answers against brute-force
//	          ground truth, across thresholds and a shards × partition
//	          topology grid with the byte-identical determinism check
//	          (-format json emits the BENCH_accuracy.json schema used by
//	          `make bench`)
//	all       everything above except parallel, serving, compaction,
//	          query and accuracy
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bench"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "workload scale: smoke, small or paper")
		runs      = flag.Int("runs", 1, "timed runs per measurement (minimum reported)")
		seed      = flag.Uint64("seed", 42, "random seed")
		recall    = flag.Float64("recall", 0.9, "target recall for approximate methods")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines per measured algorithm (1 = sequential; join result sets are identical across values, but timings, candidate counters and recall-stop points vary with scheduling — use 1 for bit-reproducible experiment tables)")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		format    = flag.String("format", "table", "output format: table or csv")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var scale bench.Scale
	switch *scaleName {
	case "smoke":
		scale = bench.SmokeScale()
	case "small":
		scale = bench.DefaultScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		fatalf("unknown scale %q", *scaleName)
	}
	cfg := bench.Config{Runs: *runs, TargetRecall: *recall, Seed: *seed, Workers: *workers}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = io.Discard
	}
	out := os.Stdout

	csvOut := *format == "csv"
	jsonOut := *format == "json"
	if *format != "table" && *format != "csv" && *format != "json" {
		fatalf("unknown format %q (want table, csv or json)", *format)
	}
	switch flag.Arg(0) {
	case "parallel", "serving", "compaction", "query", "accuracy":
	default:
		if jsonOut {
			fatalf("-format json is only supported by the parallel, serving, compaction, query and accuracy subcommands")
		}
	}
	banner := func(s string) {
		if !csvOut && !jsonOut {
			fmt.Fprintln(out, s)
		}
	}
	check := func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
	}

	cmd := flag.Arg(0)
	run := func(name string) {
		switch name {
		case "table1":
			banner("== Table I: dataset statistics ==")
			rows := bench.RunTable1(bench.AllWorkloads(scale))
			if csvOut {
				check(bench.CSVTable1(out, rows))
			} else {
				bench.PrintTable1(out, rows)
			}
		case "table2":
			banner("== Table II: join time in seconds (CP | MH | ALL), recall >= target ==")
			cells := bench.RunTable2(bench.AllWorkloads(scale), bench.Thresholds, cfg, progress)
			if csvOut {
				check(bench.CSVTable2(out, cells))
			} else {
				bench.PrintTable2(out, cells, bench.Thresholds)
			}
		case "fig2":
			banner("== Figure 2: CPSJoin speedup over AllPairs ==")
			cells := bench.RunTable2(bench.AllWorkloads(scale), bench.Thresholds, cfg, progress)
			points := bench.Fig2FromTable2(cells)
			if csvOut {
				check(bench.CSVFig2(out, points))
			} else {
				bench.PrintFig2(out, points)
			}
		case "fig3a", "fig3b", "fig3c":
			param := map[string]string{"fig3a": "limit", "fig3b": "epsilon", "fig3c": "words"}[name]
			if !csvOut {
				fmt.Fprintf(out, "== Figure 3: join time vs %s (λ=0.5, recall >= 0.8) ==\n", param)
			}
			cfg3 := cfg
			cfg3.TargetRecall = 0.8
			points, err := bench.RunFig3(bench.AllWorkloads(scale), param, cfg3, progress)
			check(err)
			if csvOut {
				check(bench.CSVFig3(out, points))
			} else {
				bench.PrintFig3(out, points)
			}
		case "table4":
			banner("== Table IV: pre-candidates / candidates / results ==")
			rows := bench.RunTable4(bench.AllWorkloads(scale), cfg, progress)
			if csvOut {
				check(bench.CSVTable4(out, rows))
			} else {
				bench.PrintTable4(out, rows)
			}
		case "tokens":
			banner("== TOKENS robustness progression (Section VI-A.3) ==")
			cells := bench.RunTable2(bench.SyntheticWorkloads(scale), bench.Thresholds, cfg, progress)
			if csvOut {
				check(bench.CSVTable2(out, cells))
			} else {
				bench.PrintTable2(out, cells, bench.Thresholds)
				bench.PrintFig2(out, bench.Fig2FromTable2(cells))
			}
		case "theory":
			banner("== Recursion bounds: Lemma 4 depth, Remark 9 working space ==")
			rows := bench.RunTheory(bench.AllWorkloads(scale), cfg, progress)
			if csvOut {
				check(bench.CSVTheory(out, rows))
			} else {
				bench.PrintTheory(out, rows)
			}
		case "ablation":
			banner("== Stopping-strategy ablation (Section IV-C.5) ==")
			rows := bench.RunAblation(bench.SyntheticWorkloads(scale), cfg, progress)
			if csvOut {
				check(bench.CSVAblation(out, rows))
			} else {
				bench.PrintAblation(out, rows)
			}
		case "bayes":
			banner("== BayesLSH-lite comparison (Section VI-A.2) ==")
			rows := bench.RunBayes(bench.SyntheticWorkloads(scale), cfg, progress)
			if csvOut {
				check(bench.CSVBayes(out, rows))
			} else {
				bench.PrintBayes(out, rows)
			}
		case "parallel":
			banner("== Parallel scaling: join time vs workers (λ=0.5) ==")
			rows := bench.RunParallelScaling(bench.SyntheticWorkloads(scale), bench.DefaultWorkerCounts(), cfg, progress)
			if jsonOut {
				check(bench.WriteParallelJSON(out, rows))
			} else {
				bench.PrintParallel(out, rows)
			}
		case "serving":
			banner("== Serving: sharded batch-query throughput vs shards and workers (λ=0.5) ==")
			// UNIFORM005 only: one workload keeps the cell grid (shards ×
			// workers) affordable on every `make bench`.
			ws := bench.SyntheticWorkloads(scale)[:1]
			rows := bench.RunServingBench(ws, bench.DefaultShardCounts(), bench.DefaultWorkerCounts(), cfg, progress)
			comp := bench.RunCompactionBench(ws, []int{2, 4}, bench.DefaultWorkerCounts(), cfg, progress)
			// The observability check rides along: scrape /metrics off an
			// instrumented distributed index and record the verdict with
			// the rows, so CI gates on the exposition staying valid.
			scrape := bench.CheckMetricsExposition(ws[0], cfg)
			// So does the placement-GC soak: seal + compact + re-distribute
			// churn against live peers, gated on peers hosting exactly the
			// final ring.
			churn := bench.RunPlacementChurn(ws[0], cfg, progress)
			// And the storage-tier comparison: the same saved index
			// restored hot and cold, gated on cold answers staying
			// byte-identical and the lazy open being ≥5× faster.
			tiering := bench.RunTieringBench(ws[0], cfg, progress)
			if jsonOut {
				check(bench.WriteServingJSON(out, rows, comp, &scrape, &churn, &tiering))
			} else {
				bench.PrintServing(out, rows)
				banner("== Compaction: churn, one pass, post-compaction queries (λ=0.5) ==")
				bench.PrintCompaction(out, comp)
				banner("== Tiering: hot vs cold restore of the same saved index ==")
				bench.PrintTiering(out, tiering)
				fmt.Fprintf(out, "\nmetrics scrape: ok=%v series=%d %s\n", scrape.OK, scrape.Series, scrape.Error)
				fmt.Fprintf(out, "placement churn: gc_clean=%v identical=%v ring=%d\n", churn.GCClean, churn.Identical, churn.RingKeys)
			}
		case "compaction":
			banner("== Compaction: churn, one pass, post-compaction queries (λ=0.5) ==")
			comp := bench.RunCompactionBench(bench.SyntheticWorkloads(scale)[:1], []int{2, 4}, bench.DefaultWorkerCounts(), cfg, progress)
			if jsonOut {
				check(bench.WriteServingJSON(out, nil, comp, nil, nil, nil))
			} else {
				bench.PrintCompaction(out, comp)
			}
		case "accuracy":
			banner("== Containment accuracy: index answers vs brute-force ground truth ==")
			// UNIFORM005 only, like serving and query: one workload keeps
			// the threshold × topology grid affordable on every run.
			arows := bench.RunAccuracyBench(bench.SyntheticWorkloads(scale)[:1], bench.AccuracyThresholds, cfg, progress)
			if jsonOut {
				check(bench.WriteAccuracyJSON(out, arows))
			} else {
				bench.PrintAccuracy(out, arows)
			}
		case "query":
			banner("== Query microbenchmarks: cpindex kernel and shard cache dimension (λ=0.5) ==")
			// UNIFORM005 only, like serving: one workload keeps the cell
			// grid affordable on every run.
			qrows := bench.RunQueryBench(bench.SyntheticWorkloads(scale)[:1], cfg, progress)
			if jsonOut {
				check(bench.WriteQueryJSON(out, qrows))
			} else {
				bench.PrintQuery(out, qrows)
			}
		default:
			fatalf("unknown subcommand %q", name)
		}
	}

	if cmd == "all" {
		for _, name := range []string{
			"table1", "table2", "fig2", "fig3a", "fig3b", "fig3c",
			"table4", "tokens", "ablation", "bayes", "theory",
		} {
			run(name)
			fmt.Fprintln(out)
		}
		return
	}
	run(cmd)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
