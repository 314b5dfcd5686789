package main

// Per-layer replay of the join workloads: dataset, prep (minhash, sketch),
// core, exec and the allpairs baseline, on the same generated collection
// the end-to-end run feeds cmd/ssjoin.

import (
	"context"
	"fmt"
	"runtime"

	ssjoin "repro"
	"repro/internal/allpairs"
	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/sketch"
	"repro/internal/verify"
)

// The signature length and sketch width cmd/ssjoin preprocesses with
// (core's defaults).
const (
	prepT     = 128
	prepWords = 8
)

func traceJoin(ctx context.Context, h *harness, tr *tracer, t *tally, res *workloadResult, workload string, seed uint64) error {
	m := res.Metrics
	nproc := runtime.GOMAXPROCS(0)
	c := generate(joinShape(workload), seed)
	input := h.path("sets.txt")
	if err := writeSets(input, c.Sets); err != nil {
		return err
	}
	st := c.stats()
	res.Shape = &st

	var sets [][]uint32
	var err error
	m["dataset.parse_s"] = tr.do(0, 0, "dataset.parse", func(int) { sets, err = ssjoin.LoadSets(input) }).Seconds()
	if err == nil && len(sets) != len(c.Sets) {
		err = fmt.Errorf("parsed %d sets, wrote %d", len(sets), len(c.Sets))
	}
	t.record("parse", err)
	if err != nil {
		return nil
	}

	// prep: the whole build at nproc workers and at one, then its two
	// hashing children alone; what is left is prep's own time.
	var ix *prep.Index
	m["prep.build_s"] = tr.do(0, 0, "prep.build", func(int) {
		ix = core.Preprocess(sets, &core.Options{Seed: 42, Workers: nproc})
	}).Seconds()
	m["prep.build_1w_s"] = tr.do(0, 0, "prep.build_1w", func(id int) {
		core.Preprocess(sets, &core.Options{Seed: 42, Workers: 1})
	}).Seconds()
	tokens := 0
	for _, s := range sets {
		tokens += len(s)
	}
	sign := tr.do(0, 0, "minhash.sign_all", func(int) { minhash.NewSigner(prepT, 42).SignAll(sets) })
	m["minhash.sign_all_s"] = sign.Seconds()
	m["minhash.sign_ns_per_token"] = float64(sign.Nanoseconds()) / float64(tokens)
	m["sketch.sketch_all_s"] = tr.do(0, 0, "sketch.sketch_all", func(int) { sketch.NewMaker(prepWords, 42).SketchAll(sets) }).Seconds()
	m["prep.self_s"] = m["prep.build_1w_s"] - m["minhash.sign_all_s"] - m["sketch.sketch_all_s"]
	if ctx.Err() != nil {
		return ctx.Err()
	}

	path := h.path("ix.bin")
	m["prep.save_s"] = tr.do(0, 0, "prep.save", func(int) { err = ix.Save(path) }).Seconds()
	t.record("save", err)
	var loaded *prep.Index
	m["prep.load_s"] = tr.do(0, 0, "prep.load", func(int) { loaded, err = prep.Load(path) }).Seconds()
	t.record("load", err)
	if err != nil {
		return nil
	}
	m["prep.index_bytes_per_set"] = float64(fileSize(path)) / float64(len(sets))

	// core: the three thresholds at nproc workers over the loaded index.
	join := func(name string, lambda float64, o *core.Options) (pairs []verify.Pair, cnt verify.Counters, secs float64) {
		secs = tr.do(0, 0, name, func(id int) {
			pairs, cnt = core.JoinIndexed(loaded, lambda, o)
			tr.count(id, "precandidates", float64(cnt.PreCandidates))
			tr.count(id, "candidates", float64(cnt.Candidates))
			tr.count(id, "results", float64(cnt.Results))
		}).Seconds()
		return
	}
	var cps []verify.Pair
	var allocBytes uint64
	m["exec.tasks"], m["exec.steals"] = execDelta(func() {
		_, allocBytes = mallocs(func() {
			cps, _, m["core.join_l50_s"] = join("core.join_l50", 0.5, &core.Options{Seed: 42, Workers: nproc})
		})
	})
	m["core.alloc_mb"] = float64(allocBytes) / (1 << 20)
	_, _, m["core.join_l70_s"] = join("core.join_l70", 0.7, &core.Options{Seed: 42, Workers: nproc})
	_, _, m["core.join_l90_s"] = join("core.join_l90", 0.9, &core.Options{Seed: 42, Workers: nproc})

	// Counts are taken at one worker, where they repeat exactly; the same
	// run is the sequential side of exec.join_speedup. Metrics forces the
	// depth-first traversal it describes.
	var met core.Metrics
	_, cnt, oneWorker := join("core.join_l50_1w", 0.5, &core.Options{Seed: 42, Workers: 1, Metrics: &met})
	m["core.precandidates"] = float64(cnt.PreCandidates)
	m["core.candidates"] = float64(cnt.Candidates)
	m["core.results"] = float64(cnt.Results)
	m["core.filter_pass_ratio"] = ratio(float64(cnt.Candidates), float64(cnt.PreCandidates))
	m["core.verify_hit_ratio"] = ratio(float64(cnt.Results), float64(cnt.Candidates))
	m["core.nodes"] = float64(met.Nodes)
	m["core.max_depth"] = float64(met.MaxDepth)
	m["core.bruteforced_points"] = float64(met.BruteForcedPoints)
	m["exec.join_speedup"] = ratio(oneWorker, m["core.join_l50_s"])
	if ctx.Err() != nil {
		return ctx.Err()
	}

	// allpairs: the exact baseline, also the truth for core.recall_exact.
	var exact []verify.Pair
	var apCnt verify.Counters
	m["allpairs.join_s"] = tr.do(0, 0, "allpairs.join", func(int) { exact, apCnt = allpairs.JoinWorkers(sets, 0.5, nproc) }).Seconds()
	m["allpairs.candidates"] = float64(apCnt.Candidates)
	m["allpairs.speedup"] = ratio(m["allpairs.join_s"], m["core.join_l50_s"])
	found := make(map[verify.Pair]bool, len(cps))
	for _, p := range cps {
		found[p] = true
	}
	hit := 0
	for _, p := range exact {
		if found[p] {
			hit++
		}
	}
	m["core.recall_exact"] = ratio(float64(hit), float64(len(exact)))
	t.record("recall_exact", checkRecallFloor(recallCount{Found: hit, Exist: len(exact)}))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
