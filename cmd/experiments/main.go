// Command experiments regenerates the tables and figures of the CPSJoin
// paper's evaluation (Section VI). Each subcommand prints the rows/series
// of one paper artifact; `all` runs everything.
//
// Usage:
//
//	experiments [-scale smoke|small|paper] [-format table|csv] [-workers N] [-runs 1] [-seed 42] <subcommand>
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
//	all       everything above; Table II is measured once and Figure 2
//	          derived from the same cells
//
// Nothing here measures the serving stack or gates anything: end-to-end
// performance is the ledger's (`make ledger`, benchmark/README.md), and
// every correctness contract is a Go test next to the code it protects.
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
	if *format != "table" && !csvOut {
		fatalf("unknown format %q (want table or csv)", *format)
	}
	banner := func(s string) {
		if !csvOut {
			fmt.Fprintln(out, s)
		}
	}
	check := func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
	}

	// Table II and Figure 2 are one measurement: `all` takes it once.
	var table2 []bench.Table2Cell
	table2Cells := func() []bench.Table2Cell {
		if table2 == nil {
			table2 = bench.RunTable2(bench.AllWorkloads(scale), bench.Thresholds, cfg, progress)
		}
		return table2
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
			cells := table2Cells()
			if csvOut {
				check(bench.CSVTable2(out, cells))
			} else {
				bench.PrintTable2(out, cells, bench.Thresholds)
			}
		case "fig2":
			banner("== Figure 2: CPSJoin speedup over AllPairs ==")
			points := bench.Fig2FromTable2(table2Cells())
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
