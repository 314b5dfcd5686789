package main

// The join workloads: cmd/ssjoin as a user runs it. One iteration is the
// single-shot flow (raw sets → saved index + pairs at λ=0.5) followed by a
// threshold sweep over the saved index, each step its own process.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"time"
)

// joinSeed is the -seed every ssjoin run gets; the workload seed only
// shapes the input.
const joinSeed = "42"

// Join workload sizes, fixed on the 2-core reference box so that one
// iteration costs about 5 s (see README.md, "How the sizes were fixed").
const (
	joinFlatSets      = 40000
	joinSkewSets      = 40000
	joinPairsPerClass = 240
	joinBuilds        = 3 // index-building runs per run of the workload
)

func joinShape(workload string) shape {
	if workload == wJoinSkew {
		return skewShape(joinSkewSets, joinPairsPerClass)
	}
	return flatShape(joinFlatSets, joinPairsPerClass)
}

// sortedLines puts a pair file in canonical order: ssjoin emits pairs in
// the order its workers found them, which differs run to run.
func sortedLines(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, []byte("\n"))
}

func thresholdKey(l float64) string { return fmt.Sprintf("join_l%02.0f_s", l*100) }

// runJoin measures a join workload end to end for about `seconds`.
func runJoin(ctx context.Context, h *harness, workload string, seed uint64, seconds float64) (*workloadResult, error) {
	res := newResult(workload, seed, seconds, false)
	var t tally

	c := generate(joinShape(workload), seed)
	input := h.path("sets.txt")
	var err error
	if res.Shape, err = writeCollection(input, c); err != nil {
		return nil, err
	}

	index, buildOut := h.path("ix.bin"), h.path("pairs_build.txt")
	var setup []float64
	perThreshold := make([][]float64, len(sweepThresholds))
	var recall recallCount
	var built []byte
	start := time.Now()
	for it := 0; it == 0 || time.Since(start).Seconds() < seconds; it++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The index-building run is the single-shot user flow; joinBuilds
		// samples of it are enough, later iterations only sweep.
		if it < joinBuilds {
			wall, err := h.runToExit("ssjoin", "-input", input, "-threshold", "0.5", "-seed", joinSeed,
				"-save-index", index, "-output", buildOut)
			if err == nil {
				built, err = os.ReadFile(buildOut)
			}
			if err == nil {
				_, err = parseJoinOutput(built, c.Sets, 0.5)
			}
			t.record("build", err)
			if err != nil {
				// Without an index the sweep has nothing to load.
				break
			}
			setup = append(setup, wall.Seconds())
			res.Info[fmt.Sprintf("iter%d_setup_s", it+1)] = wall.Seconds()
		}

		recall = recallCount{}
		total := 0.0
		for i, l := range sweepThresholds {
			out := h.path(fmt.Sprintf("pairs_%02.0f.txt", l*100))
			wall, err := h.runToExit("ssjoin", "-load-index", index, "-threshold", fmt.Sprint(l), "-seed", joinSeed, "-output", out)
			var got []byte
			var pairs map[idPair]bool
			if err == nil {
				got, err = os.ReadFile(out)
			}
			if err == nil {
				pairs, err = parseJoinOutput(got, c.Sets, l)
			}
			if err == nil && i == 0 && !bytes.Equal(sortedLines(got), sortedLines(built)) {
				err = fmt.Errorf("λ=0.5 pairs from -load-index differ from the -input run's")
			}
			t.record("sweep", err)
			recall.add(plantedRecall(c.Planted, l, pairs))
			perThreshold[i] = append(perThreshold[i], wall.Seconds())
			total += wall.Seconds()
		}
		t.record("recall", checkRecallFloor(recall))
		res.Info[fmt.Sprintf("iter%d_sweep_s", it+1)] = total
	}

	// Every iteration repeats identical work, and interference on a shared
	// box only ever adds time: each process time is taken from its
	// least-disturbed iteration.
	res.Metrics["setup_s"] = minOf(setup)
	res.Samples["setup_s"] = len(setup)
	sweep, sweepMedian := 0.0, 0.0
	for i, l := range sweepThresholds {
		res.Info[thresholdKey(l)] = minOf(perThreshold[i])
		sweep += minOf(perThreshold[i])
		sweepMedian += median(perThreshold[i])
	}
	res.Metrics["join_sweep_s"] = sweep
	res.Info["join_sweep_median_s"] = sweepMedian
	res.Info["setup_median_s"] = median(setup)
	res.Samples["join_sweep_s"] = len(perThreshold[0])
	res.Metrics["join_recall"] = recall.ratio()
	res.Samples["join_recall"] = recall.Exist
	res.Metrics["peak_rss_mb"] = h.peakRSSMB()
	res.finish(&t)
	return res, nil
}
