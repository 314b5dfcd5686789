// Package core implements CPSJoin — the Chosen Path Similarity Join of
// Christiani, Pagh and Sivertsen (ICDE 2018) — the primary contribution of
// the paper this repository reproduces.
//
// CPSJoin solves the (λ, ϕ)-set similarity join: every pair with Jaccard
// similarity at least λ is reported with probability at least ϕ, at 100%
// precision. The algorithm recursively splits the collection along sampled
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
// share the subroutine: size window, XOR/popcount over gathered sketches,
// and only survivors reach the result-set lookup and exact verification.
// Splitting groups a node by minhash value with a reusable open-addressing
// table and a stable counting scatter into one buffer per sampled position.
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
// identical regardless of worker count or scheduling. Scratch is per worker,
// not per task.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/exec"
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
	// which achieved >90% recall on all datasets and thresholds).
	Repetitions int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the number of worker goroutines of the parallel execution
	// layer (internal/exec): 0 runs sequentially, negative selects
	// GOMAXPROCS. The result set is identical across worker counts for a
	// fixed Seed and options; only the candidate counters (and, with
	// StopAtRecall, the early-stopping point) depend on scheduling.
	// A non-nil Metrics forces one worker, as the recursion statistics it
	// collects are properties of the depth-first traversal.
	Workers int
	// Stopping selects the stopping strategy (ablation of Section IV-C.5).
	Stopping Stopping
	// GlobalDepth is the fixed depth for StopGlobal; 0 derives
	// k = ln(n)/ln(1/λ), the value balancing tree size against node count.
	GlobalDepth int
	// StrictBruteForce uses the literal Algorithm 2 (exact token counts,
	// recomputed after every removal) instead of the sampled node-sketch
	// heuristic of Section V-A.4. Exponentially slower; for tests and
	// ablations.
	StrictBruteForce bool
	// GroundTruth, when non-nil together with StopAtRecall > 0, enables
	// the paper's experimental procedure (Section VI-2): the join stops as
	// soon as recall against the known exact result reaches StopAtRecall.
	// All workers share one atomic view of the accumulated results
	// (verify.RecallTracker), so the stopping decision is global rather
	// than per worker. Repetitions remains the upper bound.
	GroundTruth  []verify.Pair
	StopAtRecall float64
	// Metrics, when non-nil, receives recursion statistics (explored tree
	// depth, node counts, peak live node mass) for validating the
	// theoretical bounds of Section IV (Lemma 4, Lemma 8, Remark 9).
	Metrics *Metrics
}

// Metrics instruments the Chosen Path recursion.
type Metrics struct {
	// MaxDepth is the deepest node explored across all repetitions;
	// Lemma 4 bounds it by O(log(n)/ε) with high probability.
	MaxDepth int
	// Nodes is the number of recursion nodes visited.
	Nodes int64
	// NodeMass is the sum of node sizes over all visited nodes — the
	// total splitting work.
	NodeMass int64
	// PeakLiveMass is the maximum, over the depth-first traversal, of the
	// total size of nodes on the recursion stack: the working-space
	// measure of Lemma 8 and the O(n) conjecture of Remark 9.
	PeakLiveMass int64
	// BruteForcedPoints counts points removed by the adaptive rule
	// (BRUTEFORCEPOINT calls); BruteForcedNodes counts nodes finished by
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

	workers     int
	states      []*taskState // one per worker
	spawnCutoff int          // node size above which child subtrees become tasks

	splitProb float64
	maxDepth  int
	nearBound int   // bruteForceStep: a member fewer bits than this from the node sketch is removed
	kx        []int // per-point stopping depth for StopIndividual

	liveMass int64 // total size of nodes on the recursion stack (Metrics)
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
	j.workers = exec.EffectiveWorkers(opt.Workers)
	if opt.Metrics != nil {
		// Recursion statistics (stack mass, traversal depth) are
		// properties of the sequential depth-first walk.
		j.workers = 1
	}
	// A subtree is one task once its root fits within a few brute-force
	// limits: large enough to amortize scheduling, small enough that a
	// single repetition decomposes into many tasks.
	j.spawnCutoff = max(4*opt.Limit, 1024)
	if ix == nil {
		ix = Preprocess(sets, &opt)
	}
	j.sigs = ix.Sigs
	j.bf = verify.NewPipeline(sets, lambda, j.workers)
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
	scratch := j.bf.NewScratches(j.workers)
	j.states = make([]*taskState, j.workers)
	for i := range j.states {
		j.states[i] = &taskState{j: j, bf: scratch[i], nodeSketch: make([]uint64, j.w)}
	}
	roots := make([]exec.Task, j.opt.Repetitions)
	for rep := range roots {
		seed := repSeed(j.opt.Seed, rep)
		roots[rep] = func(c *exec.Ctx) { j.states[c.Worker()].recurse(c, j.root, 0, seed) }
	}
	exec.Run(j.workers, roots...)
	return j.bf.Res.Pairs(), j.bf.Counters(scratch)
}

// group is one minhash value met by split and the number of members
// carrying it (while scattering: where its next member goes).
type group struct{ v, n uint32 }

// taskState is one worker's execution context: its half of the brute-force
// pipeline (with its share of the candidate counters) and all scratch of the
// recursion. A worker runs one task at a time and tasks reach it through
// exec.Ctx.Worker, so nothing is locked; the joiner is read-only while
// tasks run, except for the concurrent result set. No buffer here is live
// across a recursive call: node sketch and marked points are used up before
// recurse splits, and split's table, groups and slots are dead once the
// child buffer — the one allocation per call — is filled.
type taskState struct {
	j          *joiner
	bf         *verify.Scratch
	nodeSketch []uint64
	marked     []uint32 // points the stopping rule takes out of a node
	table      []uint64 // split: open addressing, value<<32 | group+1
	groups     []group
	slot       []uint32 // split: each member's value, then its group
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
	if m := j.opt.Metrics; m != nil {
		if depth > m.MaxDepth {
			m.MaxDepth = depth
		}
		m.Nodes++
		// Capture the entry size: node is reassigned below when the
		// brute-force step removes points, and the deferred decrement must
		// mirror the increment exactly.
		size := int64(len(node))
		m.NodeMass += size
		j.liveMass += size
		if j.liveMass > m.PeakLiveMass {
			m.PeakLiveMass = j.liveMass
		}
		defer func() { j.liveMass -= size }()
	}
	// Every node draws from its own generator, seeded by its path from
	// the root: first the stopping step (node-sketch sampling), then the
	// splitting step, exactly as in the sequential traversal.
	rng := tabhash.NewSplitMix64(seed)
	switch j.opt.Stopping {
	case StopGlobal:
		gd := j.opt.GlobalDepth
		if gd <= 0 {
			gd = j.defaultGlobalDepth()
		}
		if depth >= gd || len(node) <= 2 {
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
		if j.opt.StrictBruteForce {
			node = ts.bruteForceStrict(node)
		} else {
			node = ts.bruteForceStep(node, rng)
		}
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
// count, ids. A table numbers the values in order of first appearance and
// a counting scatter moves the ids, so members stay ascending and a value
// carried by one member (most of them, deep in the tree) gets no room.
func (ts *taskState) split(node []uint32, pos int) []uint32 {
	j := ts.j
	lg := bits.Len(uint(2*len(node) - 1)) // table of 2^lg >= 2·len(node) entries
	if len(ts.table) < 1<<lg {
		ts.table = make([]uint64, 1<<lg)
		ts.slot = make([]uint32, 1<<lg/2)
	}
	table, groups, slot := ts.table[:1<<lg], ts.groups[:0], ts.slot[:len(node)]
	clear(table)
	// Fetch the values in a loop of their own: each is a cache miss, and
	// with nothing else in the loop many of them are in flight at once.
	for i, id := range node {
		slot[i] = j.sigs[int(id)*j.t+pos]
	}
	for i, v := range slot {
		// Values are tokens, often small and dense: hash multiplicatively.
		for h := v * 0x9e3779b1 >> (32 - lg); ; h = (h + 1) & (1<<lg - 1) {
			e := table[h]
			if e == 0 {
				e = uint64(v)<<32 | uint64(len(groups)+1)
				table[h] = e
				groups = append(groups, group{v: v})
			} else if uint32(e>>32) != v {
				continue
			}
			slot[i] = uint32(e) - 1
			groups[slot[i]].n++
			break
		}
	}
	ts.groups = groups
	total := 0
	for _, g := range groups {
		if g.n >= 2 {
			total += 2 + int(g.n)
		}
	}
	if total == 0 {
		return nil
	}
	kids, at := make([]uint32, total), uint32(0)
	for i, g := range groups {
		groups[i].n = 0 // no room
		if g.n >= 2 {
			kids[at], kids[at+1] = g.v, g.n
			groups[i].n = at + 2
			at += 2 + g.n
		}
	}
	for i, id := range node {
		if g := &groups[slot[i]]; g.n != 0 {
			kids[g.n] = id
			g.n++
		}
	}
	return kids
}

func (j *joiner) defaultGlobalDepth() int {
	// Balance n(1/λ)^k tree cost against within-node comparisons:
	// k = ln(n)/ln(1/λ).
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

	rest := ts.removeMarked(node, ts.bf.Near(node, nodeSketch, j.nearBound, ts.marked[:0]))
	if m := j.opt.Metrics; m != nil {
		m.BruteForcedPoints += int64(len(node) - len(rest))
	}
	return rest
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
// similarity from token counts over the embedded sets, recomputed after
// every removal. Used with StrictBruteForce and when sketches are disabled.
func (ts *taskState) bruteForceStrict(node []uint32) []uint32 {
	j := ts.j
	for {
		if len(node) <= j.opt.Limit {
			ts.bruteForcePairs(node)
			return nil
		}
		counts := make(map[uint64]int32, len(node)*j.t/4)
		for _, id := range node {
			sig := j.sigs[int(id)*j.t : (int(id)+1)*j.t]
			for pos, v := range sig {
				counts[uint64(pos)<<32|uint64(v)]++
			}
		}
		threshold := (1 - j.opt.Epsilon) * j.lambda
		removed := false
		for idx, id := range node {
			sig := j.sigs[int(id)*j.t : (int(id)+1)*j.t]
			sum := int64(0)
			for pos, v := range sig {
				sum += int64(counts[uint64(pos)<<32|uint64(v)] - 1)
			}
			avg := float64(sum) / (float64(j.t) * float64(len(node)-1))
			if avg > threshold {
				ts.bf.BruteForcePoints(node[idx:idx+1], node[:idx])
				ts.bf.BruteForcePoints(node[idx:idx+1], node[idx+1:])
				node = append(append([]uint32{}, node[:idx]...), node[idx+1:]...)
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
			j.kx[i] = j.defaultGlobalDepth()
		}
		return
	}
	rng := tabhash.NewSplitMix64(j.opt.Seed + 0xdead)
	sample := 32
	if sample > n-1 {
		sample = n - 1
	}
	kMax := j.defaultGlobalDepth() + 4
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
	if m := ts.j.opt.Metrics; m != nil && len(node) > 1 {
		m.BruteForcedNodes++
	}
	ts.bf.BruteForcePairs(node)
}
