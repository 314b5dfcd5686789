// Package core implements CPSJoin — the Chosen Path Similarity Join of
// Christiani, Pagh and Sivertsen (ICDE 2018) — the primary contribution of
// the paper this repository reproduces.
//
// CPSJoin solves the (λ, ϕ)-set similarity join: every pair with Jaccard
// similarity at least λ is reported with probability at least ϕ, at 100%
// precision. The repetitions give the ϕ. With the sketch filter on (the
// default), a pair's sketches are drawn once per join, so a pair near λ
// that the filter rejects (probability up to δ) is rejected in every
// repetition: such a pair is reported with probability about ϕ·(1 − δ),
// and more repetitions do not lift that ceiling.
//
// The algorithm recursively splits the collection along sampled
// MinHash positions (the Chosen Path Tree), so that the probability of a
// pair meeting in a subproblem grows with its similarity; an adaptive
// brute-force rule removes a point from the branching process exactly when
// continuing would cost more comparisons than finishing it directly
// (Algorithm 2 of the paper), which is what makes the method parameter-free
// and robust on data without rare tokens.
//
// Almost all of the time goes to two loops. Brute force (BRUTEFORCEPAIRS
// and BRUTEFORCEPOINT alike) is verify.Pipeline, the block kernel this join
// shares with the MinHash comparator, as Algorithms 2 and 3 of the paper
// share the subroutine: size window, XOR/popcount over gathered sketches
// (AVX-512 or POPCNT assembly on amd64, picked at start-up; Go
// elsewhere), and only survivors reach the result-set lookup and exact
// verification.
// Splitting groups a node by minhash value through internal/group, the
// grouper the search trie and MinHash LSH share, and a stable counting
// scatter into one buffer per sampled position.
// The order of work differs from the paper's per-pair formulation; which
// pairs are looked at, which survive and what every node draws do not
// (TestGoldenJoin).
//
// Parallelism follows Section VII's observation that "most of the
// computation happens in independent, recursive calls": the recursion runs
// on the work-stealing pool of internal/exec. Whole repetitions are root
// tasks, and within a repetition every subtree of more than a few members
// hanging off a large node is spawned as its own task (spawnFloor), so a
// single repetition saturates all workers. On one worker a spawned task runs
// where it is spawned, and the same code is the depth-first recursion. Every
// node derives its randomness from a seed that depends only on its path from
// the root, so the tree ensemble — and therefore the result set — is
// identical regardless of worker count or scheduling. Scratch and the
// recursion statistics (Metrics) are per worker, not per task.
package core

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/exec"
	"repro/internal/group"
	"repro/internal/prep"
	"repro/internal/sketch"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// Stopping selects the strategy that decides when a point leaves the
// branching process and is compared directly (Section IV-C.5).
type Stopping int

const (
	// StopAdaptive removes a point when the expected number of comparisons
	// is non-decreasing in the tree depth — the paper's contribution and
	// the default.
	StopAdaptive Stopping = iota
	// StopGlobal recurses to a fixed depth k for every point, then brute
	// forces each node (classic LSH-style parameterization).
	StopGlobal
	// StopIndividual fixes a per-point depth k_x estimated from sampled
	// similarities (Ahle et al. SODA 2017 style).
	StopIndividual
)

// Options configures CPSJoin. The zero value selects the paper's final
// parameters (Table III): t=128, limit=250, ε=0.1, ℓ=8 words, δ=0.05,
// 10 repetitions, adaptive stopping, sequential execution.
type Options struct {
	// T is the MinHash signature length (embedded set size).
	T int
	// Limit is the brute-force size threshold of Algorithm 2.
	Limit int
	// Epsilon is the brute-force aggressiveness of Algorithm 2.
	// It is only consulted when EpsilonSet is true, so that ε=0.0 (a value
	// the paper's Figure 3(b) sweeps) is expressible.
	Epsilon    float64
	EpsilonSet bool
	// SketchWords is the 1-bit minwise sketch width in 64-bit words;
	// negative disables the sketch filter entirely.
	SketchWords int
	// Delta is the sketch false-negative probability.
	Delta float64
	// Repetitions is the number of independent runs (the paper fixes 10,
	// which achieved >90% recall on all datasets and thresholds). It is the
	// count a join runs without a recall target; see GroundTruth.
	Repetitions int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the number of worker goroutines of the parallel execution
	// layer (internal/exec): 0 runs sequentially, negative selects
	// GOMAXPROCS. The result set and the recursion Metrics except
	// PeakLiveMass are identical across worker counts for a fixed Seed and
	// options; only the candidate counters (and, with StopAtRecall, the
	// early-stopping point) depend on scheduling.
	Workers int
	// Stopping selects the stopping strategy (ablation of Section IV-C.5).
	Stopping Stopping
	// GroundTruth, when non-nil together with StopAtRecall > 0, enables
	// the paper's experimental procedure (Section VI-2): repetitions run
	// until recall against the known exact result reaches StopAtRecall, or
	// until 4×Repetitions, the one stop rule of the approximate joins
	// (verify.Repeat). Counters.Repetitions reports how many ran. All
	// workers share one atomic view of the accumulated results
	// (verify.RecallTracker), so the stopping decision is global rather
	// than per worker.
	GroundTruth  []verify.Pair
	StopAtRecall float64
	// Metrics, when non-nil, receives recursion statistics (explored tree
	// depth, node counts, peak live node mass) for validating the
	// theoretical bounds of Section IV (Lemma 4, Lemma 8, Remark 9).
	Metrics *Metrics
}

// Metrics instruments the Chosen Path recursion. Each worker keeps a tally;
// a join adds the counts to Metrics and raises its maxima once all are done.
type Metrics struct {
	// MaxDepth is the deepest node explored across all repetitions;
	// Lemma 4 bounds it by O(log(n)/ε) with high probability.
	MaxDepth int
	// Nodes is the number of recursion nodes visited.
	Nodes int64
	// NodeMass is the sum of node sizes over all visited nodes — the
	// total splitting work.
	NodeMass int64
	// PeakLiveMass is the largest total size of the nodes on one worker's
	// recursion stack (on one worker, the depth-first traversal's): the
	// working-space measure of Lemma 8 and the O(n) conjecture of Remark 9.
	PeakLiveMass int64
	// BruteForcedPoints counts every point a stopping rule took out of a
	// node (BRUTEFORCEPOINT); BruteForcedNodes counts nodes finished by
	// BRUTEFORCEPAIRS.
	BruteForcedPoints int64
	BruteForcedNodes  int64
}

func (o *Options) withDefaults() Options {
	opt := Options{}
	if o != nil {
		opt = *o
	}
	if opt.T <= 0 {
		opt.T = 128
	}
	if opt.Limit <= 0 {
		opt.Limit = 250
	}
	if !opt.EpsilonSet {
		opt.Epsilon = 0.1
	}
	if opt.SketchWords == 0 {
		opt.SketchWords = 8
	}
	if opt.Delta <= 0 || opt.Delta >= 1 {
		opt.Delta = 0.05
	}
	if opt.Repetitions <= 0 {
		opt.Repetitions = 10
	}
	return opt
}

// Join computes an approximate self-join at Jaccard threshold lambda.
// Returned pairs are deduplicated, exact-verified (100% precision), and in
// input indices.
func Join(sets [][]uint32, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	return newJoiner(sets, nil, lambda, o, nil).run()
}

// Preprocess builds the reusable index (signatures and sketches) for a
// collection with the given options. Joins at any threshold can then run
// against it without repeating the embedding work, which is how the
// paper's experiments measure join time. With Workers set, the per-set
// hashing is spread across the execution layer.
func Preprocess(sets [][]uint32, o *Options) *prep.Index {
	opt := o.withDefaults()
	return prep.BuildParallel(sets, opt.T, max(opt.SketchWords, 0), opt.Seed, exec.EffectiveWorkers(opt.Workers))
}

// JoinIndexed runs a self-join against a prebuilt index. The index
// determines the signature length and sketch width; other options apply
// unchanged.
func JoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	// The joiner keeps the matrices' slice headers, not the index, and those
	// of a loaded index point into a mapping that lives only as long as ix.
	defer runtime.KeepAlive(ix)
	return newJoiner(ix.Sets, nil, lambda, o, ix).run()
}

// JoinRS computes an approximate R-S join: pairs (i, k) with
// J(r[i], s[k]) >= lambda, reported as Pair{A: i, B: k} where A indexes r
// and B indexes s. Implemented, as in Section IV of the paper, by a
// self-join over R ∪ S restricted to cross pairs.
func JoinRS(r, s [][]uint32, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	all := make([][]uint32, 0, len(r)+len(s))
	all = append(all, r...)
	all = append(all, s...)
	owners := make([]uint8, len(all))
	for i := len(r); i < len(all); i++ {
		owners[i] = 1
	}
	pairs, counters := newJoiner(all, owners, lambda, o, nil).run()
	for i := range pairs {
		// Normalized pairs have A < B; cross pairs have exactly one side
		// >= len(r), and since all R ids precede S ids, A is the R side.
		pairs[i].B -= uint32(len(r))
	}
	return pairs, counters
}

type joiner struct {
	sets   [][]uint32
	lambda float64
	opt    Options

	t        int
	sigs     []uint32 // flattened n × t signatures
	w        int      // sketch words; 0 if disabled
	sketches []uint64 // flattened n × w sketches
	root     []uint32 // 0..n-1: the root node of every repetition, read-only

	bf *verify.Pipeline // brute force: filters, result set, recall tracker

	states      []*taskState // one per worker, in worker order
	spawnCutoff int          // node size above which child subtrees become tasks

	splitProb float64
	maxDepth  int
	nearBound int   // bruteForceStep: a member fewer bits than this from the node sketch is removed
	kx        []int // per-point stopping depth for StopIndividual
}

func newJoiner(sets [][]uint32, owners []uint8, lambda float64, o *Options, ix *prep.Index) *joiner {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("core: lambda %v out of (0,1)", lambda))
	}
	if len(sets) < 2 {
		return nil
	}
	opt := o.withDefaults()
	if ix != nil {
		// A prebuilt index fixes the embedding parameters.
		opt.T = ix.T
		if ix.Words > 0 && opt.SketchWords > 0 {
			opt.SketchWords = ix.Words
		} else {
			opt.SketchWords = -1
		}
	}
	j := &joiner{
		sets:   sets,
		lambda: lambda,
		opt:    opt,
		t:      opt.T,
	}
	// A subtree is one task once its root fits within a few brute-force
	// limits: large enough to amortize scheduling, small enough that a
	// single repetition decomposes into many tasks.
	j.spawnCutoff = max(4*opt.Limit, 1024)
	if ix == nil {
		ix = Preprocess(sets, &opt)
	}
	j.sigs = ix.Sigs
	j.bf = verify.NewPipeline(sets, lambda, exec.EffectiveWorkers(opt.Workers))
	j.bf.Owners = owners
	j.bf.Tracker = verify.NewRecallTracker(opt.GroundTruth, opt.StopAtRecall)
	if opt.SketchWords > 0 {
		j.w = ix.Words
		j.sketches = ix.Sketches
		j.bf.UseSketches(j.w, j.sketches, opt.Delta)
		j.nearBound = sketch.HammingBelow(j.w, (1-opt.Epsilon)*lambda)
	}
	j.root = make([]uint32, len(sets))
	for i := range j.root {
		j.root[i] = uint32(i)
	}
	j.splitProb = 1 / (lambda * float64(opt.T))
	j.maxDepth = maxDepth(len(sets), opt.Epsilon)
	return j
}

// spawnFloor is the size a child must exceed to become a task. Most children
// of a large node have two or three members (84 062 tasks in a 40 000-set
// skew join), and 16 members are at most 120 comparisons, under a microsecond
// of kernel: less than a spawn's closure, push and wake-up. Join time is flat
// from 16 to Limit on both ledger shapes; the smallest leaves most to steal.
const spawnFloor = 16

// maxDepth caps the recursion as a safety net. Lemma 4: explored depth is
// O(log n / ε) w.h.p.; use a generous constant and treat ε below 0.05 as
// 0.05 for the bound only.
func maxDepth(n int, eps float64) int {
	return int(4*math.Log(float64(n+1))/max(eps, 0.05)) + 8
}

// repSeed derives the root seed of one repetition; it depends only on the
// repetition index, never on which worker runs it.
func repSeed(seed uint64, rep int) uint64 {
	return tabhash.Mix64(seed + uint64(rep)*0x9d5)
}

// childSeed derives a child node's seed from its parent's seed and the
// (position, minhash value) bucket that formed it. Both inputs are stable
// properties of the tree, so the full ensemble of recursion trees is
// deterministic no matter which worker expands which subtree — neither the
// order in which split emits the buckets nor task scheduling enters the
// derivation.
func childSeed(seed uint64, pos int, v uint32) uint64 {
	return tabhash.DeriveSeed(seed, uint64(pos), uint64(v))
}

func (j *joiner) run() ([]verify.Pair, verify.Counters) {
	if j == nil { // fewer than two sets
		return nil, verify.Counters{}
	}
	if j.opt.Stopping == StopIndividual {
		j.computeIndividualDepths()
	}
	newState := func(s *verify.Scratch) *taskState {
		ts := &taskState{j: j, bf: s, nodeSketch: make([]uint64, j.w)}
		j.states = append(j.states, ts)
		return ts
	}
	pairs, c := verify.Repeat(j.bf, j.opt.Repetitions, newState, func(c *exec.Ctx, ts *taskState, rep int) {
		ts.recurse(c, j.root, 0, repSeed(j.opt.Seed, rep))
	})
	if m := j.opt.Metrics; m != nil {
		for _, ts := range j.states {
			w := &ts.m
			m.MaxDepth = max(m.MaxDepth, w.MaxDepth)
			m.Nodes += w.Nodes
			m.NodeMass += w.NodeMass
			m.PeakLiveMass = max(m.PeakLiveMass, w.PeakLiveMass)
			m.BruteForcedPoints += w.BruteForcedPoints
			m.BruteForcedNodes += w.BruteForcedNodes
		}
	}
	return pairs, c
}

// taskState is one worker's execution context: its half of the brute-force
// pipeline (with its share of the candidate counters), its tally of the
// recursion statistics and all scratch of the recursion. A worker runs one
// task at a time and tasks reach it through exec.Ctx.Worker, so nothing is
// locked; the joiner is read-only while tasks run, except for the
// concurrent result set. No buffer here is live across a recursive call:
// node sketch and marked points are used up before recurse splits, and the
// grouper is dead once split's child buffer — the one allocation per call —
// is filled, or bruteForceStrict has summed its counts.
type taskState struct {
	j          *joiner
	bf         *verify.Scratch
	m          Metrics // this worker's tally, kept when Options.Metrics is set
	liveMass   int64   // total size of the nodes on this worker's stack (m)
	nodeSketch []uint64
	marked     []uint32 // points the stopping rule takes out of a node
	grouper    group.Grouper[uint32]
}

// recurse processes one node of the Chosen Path Tree (Algorithm 1). Child
// subtrees of nodes larger than the spawn cutoff become independent tasks
// if they have more than spawnFloor members themselves, each run on the
// state of the worker that picks it up — on one worker, this one, before
// Spawn returns; all other subtrees are plain calls.
//
// A node is its member ids in ascending order, and the order is part of the
// randomness contract: bruteForceStep samples the node sketch by position,
// so the same members in another order would draw another sketch. The
// root, split and the stopping rules' remainders all keep ids ascending;
// size order exists only inside the kernel's gathered blocks.
func (ts *taskState) recurse(c *exec.Ctx, node []uint32, depth int, seed uint64) {
	j := ts.j
	if j.bf.Tracker.Reached() {
		return
	}
	if j.opt.Metrics != nil {
		m := &ts.m
		m.MaxDepth = max(m.MaxDepth, depth)
		m.Nodes++
		// Capture the entry size: node is reassigned below when the
		// brute-force step removes points, and the deferred decrement must
		// mirror the increment exactly.
		size := int64(len(node))
		m.NodeMass += size
		ts.liveMass += size
		m.PeakLiveMass = max(m.PeakLiveMass, ts.liveMass)
		defer func() { ts.liveMass -= size }()
	}
	// Every node draws from its own generator, seeded by its path from
	// the root: first the stopping step (node-sketch sampling), then the
	// splitting step, exactly as in the sequential traversal.
	rng := tabhash.NewSplitMix64(seed)
	switch j.opt.Stopping {
	case StopGlobal:
		if depth >= j.globalDepth() || len(node) <= 2 {
			ts.bruteForcePairs(node)
			return
		}
	case StopIndividual:
		node = ts.individualStep(node, depth)
		if len(node) < 2 {
			return
		}
		if depth >= j.maxDepth {
			ts.bruteForcePairs(node)
			return
		}
	default: // StopAdaptive
		node = ts.bruteForceStep(node, rng)
		if len(node) < 2 {
			return
		}
		if depth >= j.maxDepth {
			ts.bruteForcePairs(node)
			return
		}
	}

	// Splitting step: sample each signature position with probability
	// 1/(λt) (expected 1/λ positions) and split the node by the minhash
	// value at each sampled position (Section V-A.3).
	spawn := len(node) > j.spawnCutoff
	for pos := 0; pos < j.t; pos++ {
		if rng.Float64() >= j.splitProb {
			continue
		}
		// kids is value, count, ids for one child after the other.
		for kids := ts.split(node, pos); len(kids) > 0; {
			v, n := kids[0], int(kids[1])
			child := kids[2 : 2+n : 2+n]
			kids = kids[2+n:]
			cseed := childSeed(seed, pos, v)
			if spawn && len(child) > spawnFloor {
				c.Spawn(func(c *exec.Ctx) { j.states[c.Worker()].recurse(c, child, depth+1, cseed) })
			} else {
				ts.recurse(c, child, depth+1, cseed)
			}
		}
	}
}

// split groups node by the minhash value at pos and returns the groups of
// two or more members — the children — in one new buffer, each as value,
// count, ids. The grouper numbers the values in order of first appearance
// and a counting scatter moves the ids, so members stay ascending and a
// value carried by one member (most of them, deep in the tree) gets no room.
func (ts *taskState) split(node []uint32, pos int) []uint32 {
	nums, vals, counts := ts.grouper.Group(ts.grouper.Column(ts.j.sigs, ts.j.t, pos, node))
	total := 0
	for _, n := range counts {
		if n >= 2 {
			total += 2 + int(n)
		}
	}
	if total == 0 {
		return nil
	}
	kids, at := make([]uint32, total), uint32(0)
	for i, n := range counts {
		counts[i] = 0 // from here on, the group's cursor into kids; 0: no room
		if n >= 2 {
			kids[at], kids[at+1] = vals[i], n
			counts[i] = at + 2
			at += 2 + n
		}
	}
	for i, id := range node {
		if c := &counts[nums[i]]; *c != 0 {
			kids[*c] = id
			*c++
		}
	}
	return kids
}

// globalDepth is StopGlobal's fixed depth k = ln(n)/ln(1/λ), balancing
// n(1/λ)^k tree cost against within-node comparisons.
func (j *joiner) globalDepth() int {
	k := int(math.Ceil(math.Log(float64(len(j.sets))) / math.Log(1/j.lambda)))
	if k < 1 {
		k = 1
	}
	return k
}

// bruteForceStep is the implementation heuristic of Section V-A.4: a
// single pass that estimates, via a sampled node sketch, each point's
// average similarity to the node, brute-forces every point above
// (1-ε)λ, and returns the remainder. The pass is verify.Scratch.Near, the
// sketch filter's block run against the node sketch: the estimate is above
// (1-ε)λ exactly when the Hamming distance is below nearBound
// (sketch.HammingBelow), so no member's estimate is computed.
func (ts *taskState) bruteForceStep(node []uint32, rng *tabhash.SplitMix64) []uint32 {
	j := ts.j
	if len(node) <= j.opt.Limit {
		ts.bruteForcePairs(node)
		return nil
	}
	if j.w == 0 {
		// No sketches: fall back to the exact count-based rule.
		return ts.bruteForceStrict(node)
	}

	// Node sketch ŝ: bit i is bit i of the sketch of a uniformly sampled
	// member, so agreement between x̂ and ŝ estimates the average
	// similarity of x to the node.
	nodeSketch := ts.nodeSketch
	for wd := 0; wd < j.w; wd++ {
		var word uint64
		for b := 0; b < 64; b++ {
			member := node[rng.Intn(len(node))]
			bit := (j.sketches[int(member)*j.w+wd] >> uint(b)) & 1
			word |= bit << uint(b)
		}
		nodeSketch[wd] = word
	}

	return ts.removeMarked(node, ts.bf.Near(node, nodeSketch, j.nearBound, ts.marked[:0]))
}

// removeMarked takes the marked points, a subsequence of node, out of the
// branching process: each is compared against everything in the node
// exactly once — against the remainder, plus all pairs among themselves —
// and the remainder is returned (node itself when nothing is marked).
func (ts *taskState) removeMarked(node, marked []uint32) []uint32 {
	ts.marked = marked
	if len(marked) == 0 {
		return node
	}
	if ts.j.opt.Metrics != nil {
		ts.m.BruteForcedPoints += int64(len(marked))
	}
	rest, m := make([]uint32, 0, len(node)-len(marked)), marked
	for _, id := range node {
		if len(m) > 0 && m[0] == id {
			m = m[1:]
		} else {
			rest = append(rest, id)
		}
	}
	ts.bf.BruteForcePoints(marked, rest)
	ts.bruteForcePairs(marked)
	return rest
}

// bruteForceStrict is the literal Algorithm 2: exact average Braun-Blanquet
// similarity from the node's value counts at each position, recomputed after
// every removal. bruteForceStep falls back to it when sketches are disabled.
func (ts *taskState) bruteForceStrict(node []uint32) []uint32 {
	j := ts.j
	for {
		if len(node) <= j.opt.Limit {
			ts.bruteForcePairs(node)
			return nil
		}
		sums := make([]int64, len(node)) // each member's count of (position, value) matches
		for pos := 0; pos < j.t; pos++ {
			nums, _, counts := ts.grouper.Group(ts.grouper.Column(j.sigs, j.t, pos, node))
			for i, k := range nums {
				sums[i] += int64(counts[k] - 1)
			}
		}
		threshold := (1 - j.opt.Epsilon) * j.lambda
		removed := false
		for idx := range node {
			avg := float64(sums[idx]) / (float64(j.t) * float64(len(node)-1))
			if avg > threshold {
				ts.bf.BruteForcePoints(node[idx:idx+1], node[:idx])
				ts.bf.BruteForcePoints(node[idx:idx+1], node[idx+1:])
				node = append(append([]uint32{}, node[:idx]...), node[idx+1:]...)
				if j.opt.Metrics != nil {
					ts.m.BruteForcedPoints++
				}
				removed = true
				break
			}
		}
		if !removed {
			return node
		}
	}
}

// individualStep removes points whose precomputed stopping depth has been
// reached, comparing them against the whole node.
func (ts *taskState) individualStep(node []uint32, depth int) []uint32 {
	j := ts.j
	if len(node) <= 2 {
		ts.bruteForcePairs(node)
		return nil
	}
	marked := ts.marked[:0]
	for _, id := range node {
		if depth >= j.kx[id] {
			marked = append(marked, id)
		}
	}
	return ts.removeMarked(node, marked)
}

// computeIndividualDepths estimates, for every point, the depth k_x
// minimizing (1/λ)^k + Σ_y (sim(x,y)/λ)^k, with the sum estimated from a
// sample of sketch similarities (the individual strategy of Ahle et al.).
// It runs once, before any task starts; kx is read-only afterwards.
func (j *joiner) computeIndividualDepths() {
	n := len(j.sets)
	j.kx = make([]int, n)
	if j.w == 0 {
		for i := range j.kx {
			j.kx[i] = j.globalDepth()
		}
		return
	}
	rng := tabhash.NewSplitMix64(j.opt.Seed + 0xdead)
	sample := 32
	if sample > n-1 {
		sample = n - 1
	}
	kMax := j.globalDepth() + 4
	sims := make([]float64, 0, sample)
	for x := 0; x < n; x++ {
		sims = sims[:0]
		xs := j.sketches[x*j.w : (x+1)*j.w]
		for s := 0; s < sample; s++ {
			y := rng.Intn(n)
			if y == x {
				continue
			}
			ys := j.sketches[y*j.w : (y+1)*j.w]
			sims = append(sims, sketch.EstimateJaccard(xs, ys))
		}
		scale := float64(n-1) / float64(max(len(sims), 1))
		bestK, bestCost := 1, math.Inf(1)
		for k := 1; k <= kMax; k++ {
			cost := math.Pow(1/j.lambda, float64(k))
			for _, s := range sims {
				cost += scale * math.Pow(s/j.lambda, float64(k))
			}
			if cost < bestCost {
				bestCost = cost
				bestK = k
			}
		}
		j.kx[x] = bestK
	}
}

// bruteForcePairs reports all qualifying pairs within the node
// (BRUTEFORCEPAIRS in Algorithm 2).
func (ts *taskState) bruteForcePairs(node []uint32) {
	if ts.j.opt.Metrics != nil && len(node) > 1 {
		ts.m.BruteForcedNodes++
	}
	ts.bf.BruteForcePairs(node)
}
