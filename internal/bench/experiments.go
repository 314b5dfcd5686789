package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/allpairs"
	"repro/internal/core"
	"repro/internal/lshjoin"
	"repro/internal/prep"
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
	// TargetRecall is the recall at which the approximate methods stop
	// (0.9 in Table II, 0.8 in Figure 3), unless the repetition cap of
	// verify.Repeat, 4× their default count, stops them first.
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

// Approx is one approximate join's measurement under the Section VI-2
// protocol: its time, the recall it reached against the exact result and
// how many repetitions it ran. A join stops early only at the target, so
// Below, a recall under it, means it ran to its cap (verify.Repeat); its
// repetitions then print with a trailing "*".
type Approx struct {
	Time   time.Duration
	Recall float64
	Reps   int64
	Below  bool
}

// reps is the repetitions cell: the count, marked if the join ran out of
// repetitions below the target.
func (a Approx) reps() string {
	if a.Below {
		return itoa(a.Reps) + "*"
	}
	return itoa(a.Reps)
}

// approx times join, which runs to cfg's target against truth, and measures
// its last run.
func approx(cfg Config, truth []verify.Pair, join func() ([]verify.Pair, verify.Counters)) Approx {
	var pairs []verify.Pair
	var c verify.Counters
	a := Approx{Time: timed(cfg.Runs, func() { pairs, c = join() })}
	a.Recall, a.Reps = stats.Recall(pairs, truth), c.Repetitions
	a.Below = a.Recall < cfg.TargetRecall
	return a
}

// runCPS measures CPSJoin on ix to cfg's target recall against truth.
func runCPS(ix *prep.Index, lambda float64, cfg Config, truth []verify.Pair) Approx {
	opt := &core.Options{Seed: cfg.Seed, Workers: cfg.Workers, GroundTruth: truth, StopAtRecall: cfg.TargetRecall}
	return approx(cfg, truth, func() ([]verify.Pair, verify.Counters) { return core.JoinIndexed(ix, lambda, opt) })
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

func (Table1Row) header() []string {
	return []string{"dataset", "num_sets", "avg_set_size", "sets_per_token"}
}

func (r Table1Row) cells() []string {
	return []string{r.Dataset, itoa(int64(r.NumSets)), ftoa(r.AvgSetSize), ftoa(r.SetsPerToken)}
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

// Table2Cell is one (dataset, threshold) measurement of Table II. Its last
// column, the speedup ALL/CP, is Figure 2.
type Table2Cell struct {
	Dataset   string
	Threshold float64
	// The approximate methods, each run to the target recall or its cap.
	CP, MH Approx
	ALL    time.Duration
	// Result-set size of the exact join.
	Results int
}

func (Table2Cell) header() []string {
	return []string{
		"dataset", "threshold", "cp_seconds", "mh_seconds", "all_seconds",
		"cp_recall", "mh_recall", "cp_reps", "mh_reps", "results", "speedup",
	}
}

func (c Table2Cell) cells() []string {
	return []string{
		c.Dataset, ftoa(c.Threshold),
		ftoa(c.CP.Time.Seconds()), ftoa(c.MH.Time.Seconds()), ftoa(c.ALL.Seconds()),
		ftoa(c.CP.Recall), ftoa(c.MH.Recall), c.CP.reps(), c.MH.reps(), itoa(int64(c.Results)),
		ftoa(c.ALL.Seconds() / c.CP.Time.Seconds()),
	}
}

// RunTable2 measures join time for CPSJOIN, MINHASH and ALLPAIRS on every
// workload and threshold — the experiment behind Table II and Figure 2.
// Following Section VI-2, each approximate method repeats until its recall
// against the exact result reaches cfg.TargetRecall, or until 4× its
// default repetition count (CPSJoin's Repetitions; MinHash LSH's L, derived
// from its per-pair recall ϕ), the one stop rule of verify.Repeat; the cell
// reports the recall reached and the repetitions run, marked where the cap
// stopped a method below the target. Preprocessing (signatures, sketches) is
// done once per workload and not counted towards join time, as in the paper.
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

			cell.CP = runCPS(ix, lambda, cfg, truth)
			mhOpts := &lshjoin.Options{Seed: cfg.Seed, Workers: cfg.Workers, TargetRecall: cfg.TargetRecall, GroundTruth: truth, StopAtRecall: cfg.TargetRecall}
			cell.MH = approx(cfg, truth, func() ([]verify.Pair, verify.Counters) {
				return lshjoin.JoinIndexed(ix, lambda, mhOpts)
			})

			report(progress, "table2", cell)
			cells = append(cells, cell)
		}
	}
	return cells
}

// Fig3Point is one point of Figure 3: join time as a function of one
// CPSJoin parameter, with the others at their final settings. Its
// repetitions cell is marked where the join ran to its cap below the
// target, so that its time is not one at the target recall.
type Fig3Point struct {
	Dataset string
	Param   string
	Value   float64
	Approx
	// Relative is the time divided by the time at the index setting
	// (limit=250, ε=0.1, ℓ=8), matching the y-axis of Figure 3.
	Relative float64
}

func (Fig3Point) header() []string {
	return []string{"dataset", "param", "value", "seconds", "relative", "reps"}
}

func (p Fig3Point) cells() []string {
	return []string{p.Dataset, p.Param, ftoa(p.Value), ftoa(p.Time.Seconds()), ftoa(p.Relative), p.reps()}
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
	if cfg.TargetRecall <= 0 || cfg.TargetRecall > 0.9 {
		cfg.TargetRecall = 0.8
	}
	var out []Fig3Point
	for _, w := range workloads {
		truth, _ := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
		base := core.Options{Seed: cfg.Seed, Workers: cfg.Workers, GroundTruth: truth, StopAtRecall: cfg.TargetRecall}

		// Preprocess outside the timed section; the words sweep needs a
		// fresh index per point, the others share one.
		run := func(opt core.Options) Approx {
			ix := core.Preprocess(w.Sets, &opt)
			return approx(cfg, truth, func() ([]verify.Pair, verify.Counters) {
				return core.JoinIndexed(ix, lambda, &opt)
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

		runs := make([]Approx, len(values))
		var indexTime time.Duration
		for i := range values {
			runs[i] = run(opts[i])
			if values[i] == indexValue {
				indexTime = runs[i].Time
			}
		}
		for i := range values {
			rel := 0.0
			if indexTime > 0 {
				rel = runs[i].Time.Seconds() / indexTime.Seconds()
			}
			p := Fig3Point{
				Dataset: w.Name, Param: param, Value: values[i],
				Approx: runs[i], Relative: rel,
			}
			report(progress, "fig3", p)
			out = append(out, p)
		}
	}
	return out, nil
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

func (Table4Row) header() []string {
	return []string{"dataset", "threshold", "algorithm", "pre_candidates", "candidates", "results"}
}

func (r Table4Row) cells() []string {
	return []string{
		r.Dataset, ftoa(r.Threshold), r.Algorithm,
		itoa(r.PreCandidates), itoa(r.Candidates), itoa(r.Results),
	}
}

// RunTable4 collects pre-candidate/candidate/result counts for ALLPAIRS
// and CPSJOIN at λ in {0.5, 0.7}, as in Table IV.
func RunTable4(workloads []Workload, cfg Config, progress io.Writer) []Table4Row {
	var rows []Table4Row
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		for _, lambda := range []float64{0.5, 0.7} {
			truth, ac := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
			_, cc := core.JoinIndexed(ix, lambda, &core.Options{
				Seed: cfg.Seed, Workers: cfg.Workers,
				GroundTruth: truth, StopAtRecall: cfg.TargetRecall,
			})
			for _, r := range []Table4Row{
				{Dataset: w.Name, Threshold: lambda, Algorithm: "ALL",
					PreCandidates: ac.PreCandidates, Candidates: ac.Candidates, Results: ac.Results},
				{Dataset: w.Name, Threshold: lambda, Algorithm: "CP",
					PreCandidates: cc.PreCandidates, Candidates: cc.Candidates, Results: cc.Results},
			} {
				report(progress, "table4", r)
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// AblationRow compares stopping strategies (Section IV-C.5) on one
// workload.
type AblationRow struct {
	Dataset  string
	Strategy string
	Approx
}

func (AblationRow) header() []string {
	return []string{"dataset", "strategy", "seconds", "recall", "reps"}
}

func (r AblationRow) cells() []string {
	return []string{r.Dataset, r.Strategy, ftoa(r.Time.Seconds()), ftoa(r.Recall), r.reps()}
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
			r := AblationRow{Dataset: w.Name, Strategy: s.name}
			r.Approx = approx(cfg, truth, func() ([]verify.Pair, verify.Counters) {
				return core.JoinIndexed(ix, lambda, opt)
			})
			report(progress, "ablation", r)
			rows = append(rows, r)
		}
	}
	return rows
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
	Points       int64 // adaptive removals (BRUTEFORCEPOINT)
	PairNodes    int64 // nodes finished by BRUTEFORCEPAIRS
	Nodes        int64
}

func (TheoryRow) header() []string {
	return []string{
		"dataset", "n", "max_depth", "depth_bound", "peak_live_mass",
		"node_mass", "bruteforced_points", "bruteforced_nodes", "nodes", "peak_per_n",
	}
}

// cells ends with peak_per_n, the working space per set that Remark 9
// conjectures is O(1).
func (r TheoryRow) cells() []string {
	return []string{
		r.Dataset, itoa(int64(r.N)), itoa(int64(r.MaxDepth)), ftoa(r.DepthBound),
		itoa(r.PeakLiveMass), itoa(r.NodeMass), itoa(r.Points), itoa(r.PairNodes), itoa(r.Nodes),
		ftoa(float64(r.PeakLiveMass) / float64(r.N)),
	}
}

// RunTheory measures recursion statistics at λ=0.5 on cfg.Workers workers.
func RunTheory(workloads []Workload, cfg Config, progress io.Writer) []TheoryRow {
	var rows []TheoryRow
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		var m core.Metrics
		core.JoinIndexed(ix, 0.5, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers, Metrics: &m})
		r := TheoryRow{
			Dataset:      w.Name,
			N:            len(w.Sets),
			MaxDepth:     m.MaxDepth,
			DepthBound:   math.Log(float64(len(w.Sets))) / 0.1,
			PeakLiveMass: m.PeakLiveMass,
			NodeMass:     m.NodeMass,
			Points:       m.BruteForcedPoints,
			PairNodes:    m.BruteForcedNodes,
			Nodes:        m.Nodes,
		}
		report(progress, "theory", r)
		rows = append(rows, r)
	}
	return rows
}

// BayesRow compares BayesLSH-lite against CPSJoin on one workload
// (Section VI-A.2 reports it uniformly slower), both run to the same target
// recall under the same stop rule.
type BayesRow struct {
	Dataset   string
	Threshold float64
	Bayes, CP Approx
}

func (BayesRow) header() []string {
	return []string{
		"dataset", "threshold", "bayes_seconds", "cp_seconds",
		"bayes_recall", "cp_recall", "bayes_reps", "cp_reps",
	}
}

func (r BayesRow) cells() []string {
	return []string{
		r.Dataset, ftoa(r.Threshold), ftoa(r.Bayes.Time.Seconds()), ftoa(r.CP.Time.Seconds()),
		ftoa(r.Bayes.Recall), ftoa(r.CP.Recall), r.Bayes.reps(), r.CP.reps(),
	}
}

// RunBayes measures BayesLSH-lite against CPSJoin, each to cfg's target
// recall or its repetition cap.
func RunBayes(workloads []Workload, cfg Config, progress io.Writer) []BayesRow {
	var rows []BayesRow
	for _, w := range workloads {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		for _, lambda := range []float64{0.5, 0.7} {
			truth, _ := allpairs.JoinWorkers(w.Sets, lambda, cfg.Workers)
			opt := &lshjoin.Options{Seed: cfg.Seed, Workers: cfg.Workers, GroundTruth: truth, StopAtRecall: cfg.TargetRecall}
			r := BayesRow{Dataset: w.Name, Threshold: lambda}
			r.Bayes = approx(cfg, truth, func() ([]verify.Pair, verify.Counters) {
				return lshjoin.BayesJoinIndexed(ix, lambda, opt)
			})
			r.CP = runCPS(ix, lambda, cfg, truth)
			report(progress, "bayes", r)
			rows = append(rows, r)
		}
	}
	return rows
}
