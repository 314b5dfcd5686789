// Command benchmark is this repository's performance ledger: it drives
// cmd/ssjoin and cmd/serve as child processes on generated inputs, reports
// named end-to-end metrics with a regression bound each, checks every
// output, and in a separate traced run attributes time to the layers.
//
//	benchmark run     --workload <name|all> --seed N [--seconds S] [--repeat K] [--out results.json]
//	benchmark trace   --workload <name|all> --seed N [--out trace.json]
//	benchmark compare A.json B.json
//	benchmark spec    (prints BENCHMARK.json from the tables in spec.go)
//
// Without a subcommand the arguments are those of `run`; `--trace 1`
// makes it `trace`. That is the form the driver of BENCHMARK.json uses
// (through run.sh): the last line of standard output is then one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
)

func main() {
	args := os.Args[1:]
	sub := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "run", "trace":
		err = cmdRun(sub == "trace", args)
	case "compare":
		err = cmdCompare(args)
	case "spec":
		_, err = os.Stdout.Write(benchmarkJSON())
	default:
		err = fmt.Errorf("unknown subcommand %q (want run, trace, compare or spec)", sub)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errRegression makes compare exit non-zero after printing its table.
var errRegression = errors.New("regression")

func cmdRun(traced bool, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
	repeat := fs.Int("repeat", 1, "runs per workload (compare wants at least 5 per side)")
	out := fs.String("out", "", "write the results (and, traced, the span dump) to this file")
	rootFlag := fs.String("root", os.Getenv("BENCH_ROOT"), "repository checkout (default: found from the working directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	traced = traced || *traceFlag == 1
	names := workloadNames()
	if *workload != "all" {
		names = []string{*workload}
		if !slices.Contains(workloadNames(), *workload) {
			return fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames(), ", "))
		}
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	file := &resultFile{Env: readEnv(root)}
	allCorrect := true
	for _, name := range names {
		for k := 0; k < *repeat; k++ {
			res, spans, err := runOne(ctx, root, name, *seed, *seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			file.Runs = append(file.Runs, res)
			file.Spans = spans
			printResult(res)
			_, failed := res.counts()
			allCorrect = allCorrect && failed == 0
			printDriverLine(res)
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return err
		}
	}
	if !allCorrect {
		return errors.New("output checks failed")
	}
	return nil
}

// runOne measures one workload once. The harness (built binaries, scratch
// directory, children) lives exactly as long as the run, on every exit
// path, including an interrupt.
func runOne(ctx context.Context, root, workload string, seed uint64, seconds float64, traced bool) (*workloadResult, []span, error) {
	h, err := newHarness(root)
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	var res *workloadResult
	var spans []span
	switch {
	case traced:
		res, spans, err = runTraced(ctx, h, workload, seed, seconds)
	case isJoin(workload):
		res, err = runJoin(ctx, h, workload, seed, seconds)
	default:
		res, err = runServe(ctx, h, workload, seed, seconds, false)
	}
	if err == nil {
		err = ctx.Err() // an interrupted run has no result
	}
	return res, spans, err
}

// printDriverLine prints the result object the BENCHMARK.json driver
// reads: every end_to_end metric for a plain run, every per_layer metric
// for a traced one.
func printDriverLine(r *workloadResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Traced {
		for _, m := range layerMetrics {
			metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
		}
	} else {
		p := projectDriver(r)
		for _, m := range driverMetrics {
			metrics[m.Name] = value{p[m.Name], m.Unit}
		}
	}
	attempted, failed := r.counts()
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		panic(err) // only NaN/Inf can fail to marshal: a harness bug
	}
	fmt.Println(string(line))
}

// findRoot locates the repository checkout: the directory holding the
// go.mod of module repro, at or above dir (default: the working
// directory).
func findRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod of module repro at or above %s", dir)
		}
	}
}
