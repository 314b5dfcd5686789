package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/allpairs"
	"repro/internal/bayeslsh"
	"repro/internal/core"
	"repro/internal/lshjoin"
	"repro/internal/stats"
	"repro/internal/verify"
)

// Thresholds are the Jaccard thresholds of the paper's evaluation.
var Thresholds = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// Config tunes experiment execution.
type Config struct {
	// Runs is the number of timed runs per measurement; the minimum is
	// reported (the paper averages five; minimum is steadier at small
	// scale).
	Runs int
	// TargetRecall is the recall the approximate methods must reach
	// (>= 0.9 in Table II, >= 0.8 in Figure 3).
	TargetRecall float64
	// Seed drives the randomized algorithms.
	Seed uint64
	// Workers is the worker count handed to every algorithm (0 =
	// sequential, negative = GOMAXPROCS). Timings change with it; result
	// sets do not.
	Workers int
}

// DefaultConfig mirrors the paper's experimental setup at one run per cell.
func DefaultConfig() Config {
	return Config{Runs: 1, TargetRecall: 0.9, Seed: 42}
}

func timed(runs int, f func()) time.Duration {
	if runs < 1 {
		runs = 1
	}
	best := time.Duration(0)
	for r := 0; r < runs; r++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// Table1Row is one row of Table I: dataset statistics.
type Table1Row struct {
	Dataset      string
	NumSets      int
	AvgSetSize   float64
	SetsPerToken float64
}

// RunTable1 computes dataset statistics for every workload.
func RunTable1(workloads []Workload) []Table1Row {
	rows := make([]Table1Row, 0, len(workloads))
	for _, w := range workloads {
		s := w.Summary()
		rows = append(rows, Table1Row{
			Dataset:      w.Name,
			NumSets:      s.NumSets,
			AvgSetSize:   s.AvgSetSize,
			SetsPerToken: s.SetsPerToken,
		})
	}
	return rows
}

// PrintTable1 writes Table I in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-12s %10s %14s %14s\n", "Dataset", "# sets", "avg set size", "sets/tokens")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %14.1f %14.1f\n", r.Dataset, r.NumSets, r.AvgSetSize, r.SetsPerToken)
	}
}

// Table2Cell is one (dataset, threshold) measurement of Table II.
type Table2Cell struct {
	Dataset   string
	Threshold float64
	// Join times at >= TargetRecall recall for the approximate methods.
	CP, MH, ALL time.Duration
	// Achieved recall of the approximate methods (ALL is exact).
	CPRecall, MHRecall float64
	// Result-set size of the exact join.
	Results int
}

// RunTable2 measures join time for CPSJOIN, MINHASH and ALLPAIRS on every
// workload and threshold — the experiment behind Table II and Figure 2.
// Approximate methods run repetitions until recall >= cfg.TargetRecall
// against the exact result, mirroring Section VI-2. Preprocessing
// (signatures, sketches) is done once per workload and not counted towards
// join time, as in the paper.
func RunTable2(workloads []Workload, thresholds []float64, cfg Config, progress io.Writer) []Table2Cell {
	var cells []Table2Cell
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		for _, lambda := range thresholds {
			cell := Table2Cell{Dataset: w.Name, Threshold: lambda}

			var truth []verify.Pair
			cell.ALL = timed(cfg.Runs, func() {
				truth, _ = allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
			})
			cell.Results = len(truth)

			var cpPairs []verify.Pair
			cpOpts := &core.Options{
				Seed:         cfg.Seed,
				Workers:      cfg.Workers,
				GroundTruth:  truth,
				StopAtRecall: cfg.TargetRecall,
			}
			cell.CP = timed(cfg.Runs, func() {
				cpPairs, _ = core.JoinIndexed(ix, lambda, cpOpts)
			})
			cell.CPRecall = stats.Recall(cpPairs, truth)

			var mhPairs []verify.Pair
			mhOpts := &lshjoin.Options{
				Seed:         cfg.Seed,
				Workers:      cfg.Workers,
				TargetRecall: cfg.TargetRecall,
				GroundTruth:  truth,
				StopAtRecall: cfg.TargetRecall,
			}
			cell.MH = timed(cfg.Runs, func() {
				mhPairs, _ = lshjoin.JoinIndexed(ix, lambda, mhOpts)
			})
			cell.MHRecall = stats.Recall(mhPairs, truth)

			if progress != nil {
				fmt.Fprintf(progress, "table2 %-12s λ=%.1f  CP=%8.3fs  MH=%8.3fs  ALL=%8.3fs  recall CP=%.2f MH=%.2f  results=%d\n",
					w.Name, lambda, cell.CP.Seconds(), cell.MH.Seconds(), cell.ALL.Seconds(),
					cell.CPRecall, cell.MHRecall, cell.Results)
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// PrintTable2 writes Table II in the paper's layout: one row per dataset,
// CP/MH/ALL columns per threshold.
func PrintTable2(w io.Writer, cells []Table2Cell, thresholds []float64) {
	fmt.Fprintf(w, "%-12s", "Dataset")
	for _, t := range thresholds {
		fmt.Fprintf(w, " |    λ=%.1f: CP      MH     ALL", t)
	}
	fmt.Fprintln(w)
	byDataset := map[string][]Table2Cell{}
	var order []string
	for _, c := range cells {
		if _, ok := byDataset[c.Dataset]; !ok {
			order = append(order, c.Dataset)
		}
		byDataset[c.Dataset] = append(byDataset[c.Dataset], c)
	}
	for _, name := range order {
		fmt.Fprintf(w, "%-12s", name)
		for _, t := range thresholds {
			found := false
			for _, c := range byDataset[name] {
				if c.Threshold == t {
					fmt.Fprintf(w, " | %7.2f %7.2f %7.2f", c.CP.Seconds(), c.MH.Seconds(), c.ALL.Seconds())
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(w, " | %7s %7s %7s", "-", "-", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig2Point is one point of Figure 2: CPSJoin speedup over AllPairs.
type Fig2Point struct {
	Dataset   string
	Threshold float64
	Speedup   float64
}

// Fig2FromTable2 derives Figure 2 from Table II measurements.
func Fig2FromTable2(cells []Table2Cell) []Fig2Point {
	out := make([]Fig2Point, 0, len(cells))
	for _, c := range cells {
		if c.CP <= 0 {
			continue
		}
		out = append(out, Fig2Point{
			Dataset:   c.Dataset,
			Threshold: c.Threshold,
			Speedup:   c.ALL.Seconds() / c.CP.Seconds(),
		})
	}
	return out
}

// PrintFig2 writes the Figure 2 series: speedup per dataset per threshold.
func PrintFig2(w io.Writer, points []Fig2Point) {
	fmt.Fprintf(w, "%-12s %9s %9s\n", "Dataset", "λ", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %9.1f %9.2fx\n", p.Dataset, p.Threshold, p.Speedup)
	}
}

// Fig3Point is one point of Figure 3: join time as a function of one
// CPSJoin parameter, with the others at their final settings.
type Fig3Point struct {
	Dataset string
	Param   string
	Value   float64
	Time    time.Duration
	// Relative is the time divided by the time at the index setting
	// (limit=250, ε=0.1, ℓ=8), matching the y-axis of Figure 3.
	Relative float64
}

// Fig3Sweeps mirror the parameter values of Figure 3.
var (
	Fig3Limits   = []int{10, 50, 100, 250, 500}
	Fig3Epsilons = []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5}
	Fig3Words    = []int{1, 2, 4, 8, 16}
)

// RunFig3 sweeps one CPSJoin parameter ("limit", "epsilon" or "words") on
// each workload at λ=0.5 and >= 80% recall, as in Section VI-B.
func RunFig3(workloads []Workload, param string, cfg Config, progress io.Writer) ([]Fig3Point, error) {
	const lambda = 0.5
	target := cfg.TargetRecall
	if target <= 0 || target > 0.9 {
		target = 0.8
	}
	var out []Fig3Point
	for _, w := range workloads {
		truth, _ := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
		base := core.Options{Seed: cfg.Seed, Workers: cfg.Workers, GroundTruth: truth, StopAtRecall: target}

		// Preprocess outside the timed section; the words sweep needs a
		// fresh index per point, the others share one.
		run := func(opt core.Options) time.Duration {
			ix := core.Preprocess(w.Sets, &opt)
			return timed(cfg.Runs, func() {
				core.JoinIndexed(ix, lambda, &opt)
			})
		}

		var values []float64
		var opts []core.Options
		var indexValue float64
		switch param {
		case "limit":
			indexValue = 250
			for _, v := range Fig3Limits {
				opt := base
				opt.Limit = v
				values = append(values, float64(v))
				opts = append(opts, opt)
			}
		case "epsilon":
			indexValue = 0.1
			for _, v := range Fig3Epsilons {
				opt := base
				opt.Epsilon = v
				opt.EpsilonSet = true
				values = append(values, v)
				opts = append(opts, opt)
			}
		case "words":
			indexValue = 8
			for _, v := range Fig3Words {
				opt := base
				opt.SketchWords = v
				values = append(values, float64(v))
				opts = append(opts, opt)
			}
		default:
			return nil, fmt.Errorf("bench: unknown Fig3 parameter %q", param)
		}

		times := make([]time.Duration, len(values))
		var indexTime time.Duration
		for i := range values {
			times[i] = run(opts[i])
			if values[i] == indexValue {
				indexTime = times[i]
			}
			if progress != nil {
				fmt.Fprintf(progress, "fig3 %-12s %s=%v  t=%.3fs\n", w.Name, param, values[i], times[i].Seconds())
			}
		}
		for i := range values {
			rel := 0.0
			if indexTime > 0 {
				rel = times[i].Seconds() / indexTime.Seconds()
			}
			out = append(out, Fig3Point{
				Dataset: w.Name, Param: param, Value: values[i],
				Time: times[i], Relative: rel,
			})
		}
	}
	return out, nil
}

// PrintFig3 writes a Figure 3 panel.
func PrintFig3(w io.Writer, points []Fig3Point) {
	fmt.Fprintf(w, "%-12s %-8s %8s %10s %9s\n", "Dataset", "param", "value", "time", "relative")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %-8s %8v %9.3fs %9.2f\n", p.Dataset, p.Param, p.Value, p.Time.Seconds(), p.Relative)
	}
}

// Table4Row is one (dataset, threshold, algorithm) row of Table IV.
type Table4Row struct {
	Dataset       string
	Threshold     float64
	Algorithm     string
	PreCandidates int64
	Candidates    int64
	Results       int64
}

// RunTable4 collects pre-candidate/candidate/result counts for ALLPAIRS
// and CPSJOIN at λ in {0.5, 0.7}, as in Table IV.
func RunTable4(workloads []Workload, cfg Config, progress io.Writer) []Table4Row {
	var rows []Table4Row
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		for _, lambda := range []float64{0.5, 0.7} {
			truth, ac := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
			rows = append(rows, Table4Row{
				Dataset: w.Name, Threshold: lambda, Algorithm: "ALL",
				PreCandidates: ac.PreCandidates, Candidates: ac.Candidates, Results: ac.Results,
			})
			_, cc := core.JoinIndexed(ix, lambda, &core.Options{
				Seed: cfg.Seed, Workers: cfg.Workers,
				GroundTruth: truth, StopAtRecall: cfg.TargetRecall,
			})
			rows = append(rows, Table4Row{
				Dataset: w.Name, Threshold: lambda, Algorithm: "CP",
				PreCandidates: cc.PreCandidates, Candidates: cc.Candidates, Results: cc.Results,
			})
			if progress != nil {
				fmt.Fprintf(progress, "table4 %-12s λ=%.1f done\n", w.Name, lambda)
			}
		}
	}
	return rows
}

// PrintTable4 writes Table IV.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-12s %5s %5s %14s %14s %12s\n",
		"Dataset", "λ", "alg", "pre-cand", "candidates", "results")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %5.1f %5s %14.2e %14.2e %12.2e\n",
			r.Dataset, r.Threshold, r.Algorithm,
			float64(r.PreCandidates), float64(r.Candidates), float64(r.Results))
	}
}

// AblationRow compares stopping strategies (Section IV-C.5) on one
// workload.
type AblationRow struct {
	Dataset  string
	Strategy string
	Time     time.Duration
	Recall   float64
}

// RunAblation measures adaptive vs global vs individual stopping at λ=0.5.
func RunAblation(workloads []Workload, cfg Config, progress io.Writer) []AblationRow {
	const lambda = 0.5
	strategies := []struct {
		name string
		stop core.Stopping
	}{
		{"adaptive", core.StopAdaptive},
		{"global", core.StopGlobal},
		{"individual", core.StopIndividual},
	}
	var rows []AblationRow
	for _, w := range workloads {
		truth, _ := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		for _, s := range strategies {
			opt := &core.Options{
				Seed: cfg.Seed, Workers: cfg.Workers, Stopping: s.stop,
				GroundTruth: truth, StopAtRecall: cfg.TargetRecall,
			}
			var pairs []verify.Pair
			d := timed(cfg.Runs, func() {
				pairs, _ = core.JoinIndexed(ix, lambda, opt)
			})
			rows = append(rows, AblationRow{
				Dataset: w.Name, Strategy: s.name, Time: d,
				Recall: stats.Recall(pairs, truth),
			})
			if progress != nil {
				fmt.Fprintf(progress, "ablation %-12s %-10s t=%.3fs recall=%.2f\n",
					w.Name, s.name, d.Seconds(), stats.Recall(pairs, truth))
			}
		}
	}
	return rows
}

// PrintAblation writes the stopping-strategy comparison.
func PrintAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-12s %-10s %10s %8s\n", "Dataset", "strategy", "time", "recall")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %9.3fs %8.2f\n", r.Dataset, r.Strategy, r.Time.Seconds(), r.Recall)
	}
}

// TheoryRow instruments one workload's Chosen Path recursion, checking
// the paper's structural bounds: Lemma 4 (explored depth O(log n/ε)) and
// the Remark 9 conjecture (expected working space O(n)).
type TheoryRow struct {
	Dataset      string
	N            int
	MaxDepth     int
	DepthBound   float64 // log(n)/ε reference value
	PeakLiveMass int64
	NodeMass     int64
	Points       int64 // adaptive removals
	Nodes        int64
}

// RunTheory measures recursion statistics at λ=0.5 on cfg.Workers workers.
func RunTheory(workloads []Workload, cfg Config, progress io.Writer) []TheoryRow {
	var rows []TheoryRow
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		var m core.Metrics
		core.JoinIndexed(ix, 0.5, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers, Metrics: &m})
		rows = append(rows, TheoryRow{
			Dataset:      w.Name,
			N:            len(w.Sets),
			MaxDepth:     m.MaxDepth,
			DepthBound:   math.Log(float64(len(w.Sets))) / 0.1,
			PeakLiveMass: m.PeakLiveMass,
			NodeMass:     m.NodeMass,
			Points:       m.BruteForcedPoints,
			Nodes:        m.Nodes,
		})
		if progress != nil {
			fmt.Fprintf(progress, "theory %-12s depth=%d peak=%d\n", w.Name, m.MaxDepth, m.PeakLiveMass)
		}
	}
	return rows
}

// PrintTheory writes the recursion statistics with the analytical
// reference values.
func PrintTheory(w io.Writer, rows []TheoryRow) {
	fmt.Fprintf(w, "%-12s %8s %9s %12s %12s %12s %10s\n",
		"Dataset", "n", "max depth", "ln(n)/ε", "peak mass", "peak/n", "removals")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %9d %12.1f %12d %12.2f %10d\n",
			r.Dataset, r.N, r.MaxDepth, r.DepthBound,
			r.PeakLiveMass, float64(r.PeakLiveMass)/float64(r.N), r.Points)
	}
}

// BayesRow compares BayesLSH-lite against the other methods on one
// workload (Section VI-A.2 reports it uniformly slower).
type BayesRow struct {
	Dataset   string
	Threshold float64
	Bayes     time.Duration
	CP        time.Duration
	Recall    float64
}

// RunBayes measures BayesLSH-lite against CPSJoin.
func RunBayes(workloads []Workload, cfg Config, progress io.Writer) []BayesRow {
	var rows []BayesRow
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		for _, lambda := range []float64{0.5, 0.7} {
			truth, _ := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
			var bp []verify.Pair
			bTime := timed(cfg.Runs, func() {
				bp, _ = bayeslsh.JoinIndexed(ix, lambda, &bayeslsh.Options{Seed: cfg.Seed, Workers: cfg.Workers})
			})
			cpTime := timed(cfg.Runs, func() {
				core.JoinIndexed(ix, lambda, &core.Options{
					Seed: cfg.Seed, Workers: cfg.Workers,
					GroundTruth: truth, StopAtRecall: cfg.TargetRecall,
				})
			})
			rows = append(rows, BayesRow{
				Dataset: w.Name, Threshold: lambda,
				Bayes: bTime, CP: cpTime, Recall: stats.Recall(bp, truth),
			})
			if progress != nil {
				fmt.Fprintf(progress, "bayes %-12s λ=%.1f  bayes=%.3fs cp=%.3fs\n",
					w.Name, lambda, bTime.Seconds(), cpTime.Seconds())
			}
		}
	}
	return rows
}

// PrintBayes writes the BayesLSH comparison.
func PrintBayes(w io.Writer, rows []BayesRow) {
	fmt.Fprintf(w, "%-12s %5s %12s %12s %8s\n", "Dataset", "λ", "BayesLSH", "CPSJoin", "recall")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %5.1f %11.3fs %11.3fs %8.2f\n",
			r.Dataset, r.Threshold, r.Bayes.Seconds(), r.CP.Seconds(), r.Recall)
	}
}
