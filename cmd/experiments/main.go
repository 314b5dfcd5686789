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
//	table2    join times CP/MH/ALL, recall and      (Table II) and
//	          repetitions, speedup ALL/CP           (Figure 2)
//	fig3a     join time vs brute-force limit        (Figure 3a)
//	fig3b     join time vs epsilon                  (Figure 3b)
//	fig3c     join time vs sketch words             (Figure 3c)
//	table4    candidate statistics ALL vs CP        (Table IV)
//	tokens    TOKENS robustness progression         (Section VI-A.3)
//	ablation  stopping strategies                   (Section IV-C.5)
//	bayes     BayesLSH comparison                   (Section VI-A.2)
//	theory    depth/space bounds                    (Lemma 4, Remark 9)
//	all       everything above, in this order
//
// Every experiment prints one table: -format table aligns its columns as
// text under a banner, -format csv writes the same header and cells as CSV.
// The approximate joins of table2, fig3a–fig3c, tokens, ablation and bayes
// run to the target recall (-recall) or to their repetition cap, 4× their
// default count; a repetitions cell marked with "*" (as in 40*) stopped at
// the cap below the target. Sketches are drawn once per join, so a pair
// near λ that the sketch filter or sequential test drops (δ = 0.05) is
// dropped in every repetition: it is reported with probability about ϕ·(1−δ).
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
	check := func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
	}
	fig3 := func(param string) func() bench.Table {
		return func() bench.Table {
			cfg3 := cfg
			cfg3.TargetRecall = 0.8
			points, err := bench.RunFig3(bench.AllWorkloads(scale), param, cfg3, progress)
			check(err)
			return bench.TableOf(points)
		}
	}

	// capped explains a repetitions cell's marker, ceiling a pair's recall near λ.
	const capped = "reps N* = stopped at the cap, 4x the default count, below the target"
	const ceiling = "sketches are fixed per join, so a pair near λ is reported with probability about ϕ·(1−δ), δ = 0.05"
	experiments := []struct {
		name, banner string
		run          func() bench.Table
	}{
		{"table1", "== Table I: dataset statistics ==", func() bench.Table {
			return bench.TableOf(bench.RunTable1(bench.AllWorkloads(scale)))
		}},
		{"table2", "== Table II: join time in seconds, recall and repetitions to the target (" + capped + "; " + ceiling + "), speedup ALL/CP (Figure 2) ==", func() bench.Table {
			return bench.TableOf(bench.RunTable2(bench.AllWorkloads(scale), bench.Thresholds, cfg, progress))
		}},
		{"fig3a", "== Figure 3: join time vs limit (λ=0.5, recall >= 0.8; " + capped + ") ==", fig3("limit")},
		{"fig3b", "== Figure 3: join time vs epsilon (λ=0.5, recall >= 0.8; " + capped + ") ==", fig3("epsilon")},
		{"fig3c", "== Figure 3: join time vs words (λ=0.5, recall >= 0.8; " + capped + ") ==", fig3("words")},
		{"table4", "== Table IV: pre-candidates / candidates / results ==", func() bench.Table {
			return bench.TableOf(bench.RunTable4(bench.AllWorkloads(scale), cfg, progress))
		}},
		{"tokens", "== TOKENS robustness progression (Section VI-A.3; " + capped + ") ==", func() bench.Table {
			return bench.TableOf(bench.RunTable2(bench.SyntheticWorkloads(scale), bench.Thresholds, cfg, progress))
		}},
		{"ablation", "== Stopping-strategy ablation (Section IV-C.5; " + capped + ") ==", func() bench.Table {
			return bench.TableOf(bench.RunAblation(bench.SyntheticWorkloads(scale), cfg, progress))
		}},
		{"bayes", "== BayesLSH-lite comparison at equal target recall (Section VI-A.2; " + capped + "; " + ceiling + " for CPSJoin's sketch filter and BayesLSH-lite's sequential test alike) ==", func() bench.Table {
			return bench.TableOf(bench.RunBayes(bench.SyntheticWorkloads(scale), cfg, progress))
		}},
		{"theory", "== Recursion bounds: Lemma 4 depth, Remark 9 working space ==", func() bench.Table {
			return bench.TableOf(bench.RunTheory(bench.AllWorkloads(scale), cfg, progress))
		}},
	}

	cmd, ran := flag.Arg(0), false
	for _, e := range experiments {
		if cmd != "all" && cmd != e.name {
			continue
		}
		if ran {
			fmt.Fprintln(out)
		}
		if !csvOut {
			fmt.Fprintln(out, e.banner)
		}
		check(e.run().Write(out, csvOut))
		ran = true
	}
	if !ran {
		fatalf("unknown subcommand %q", cmd)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
