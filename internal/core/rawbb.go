package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// This file implements the *reference* CPSJoin: Algorithms 1 and 2 of the
// paper executed literally on the raw token sets under general
// Braun-Blanquet similarity BB(x, y) = |x∩y| / max(|x|, |y|), without the
// fixed-size embedding or the sampling/sketching heuristics of Section V.
//
// The paper's implementation assumes all sets have a fixed size t (the
// embedded form) and notes "it is easy to extend to general Braun-Blanquet
// similarity" — this is that extension. Each set x chooses token j with
// probability 1/(λ|x|), so a pair (x, y) with BB(x, y) >= λ lands in a
// common subproblem with expected multiplicity
// |x∩y|/(λ·max(|x|,|y|)) >= 1 per level, preserving the branching-process
// guarantee of Section IV. It doubles as a cross-check for the optimized
// implementation: slower by the Θ(|x|) splitting overhead the heuristics
// remove, but identical in output distribution guarantees.
//
// The recursion runs on the same work-stealing scheduler as the optimized
// join (internal/exec) under the same discipline: per-node seeds derived
// from the path, subtrees of large nodes spawned as tasks, counters per
// worker, results merged through the concurrent result set — so the
// reference implementation, too, is deterministic across worker counts. Its
// pair loop is deliberately its own, one checkPair at a time: another
// similarity, no sketches, and the cross-check of the block kernel
// (TestJoinBBAgreesWithEmbeddedOnFixedSize).

// BBOptions configures the reference Braun-Blanquet join.
type BBOptions struct {
	// Limit is the brute-force size threshold (default 250).
	Limit int
	// Epsilon is the brute-force aggressiveness (default 0.1); set
	// EpsilonSet to use 0.
	Epsilon    float64
	EpsilonSet bool
	// Repetitions is the number of independent runs (default 10).
	Repetitions int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the worker count of the parallel execution layer: 0 runs
	// sequentially, negative selects GOMAXPROCS. Result sets are identical
	// across worker counts for a fixed Seed.
	Workers int
}

func (o *BBOptions) withDefaults() BBOptions {
	opt := BBOptions{}
	if o != nil {
		opt = *o
	}
	if opt.Limit <= 0 {
		opt.Limit = 250
	}
	if !opt.EpsilonSet {
		opt.Epsilon = 0.1
	}
	if opt.Repetitions <= 0 {
		opt.Repetitions = 10
	}
	return opt
}

// JoinBB computes an approximate self-join under Braun-Blanquet similarity:
// pairs with |x∩y|/max(|x|,|y|) >= lambda, each reported with probability
// >= ϕ per the CPSJoin guarantee, at 100% precision.
func JoinBB(sets [][]uint32, lambda float64, o *BBOptions) ([]verify.Pair, verify.Counters) {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("core: lambda %v out of (0,1)", lambda))
	}
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	opt := o.withDefaults()
	workers := exec.EffectiveWorkers(opt.Workers)
	j := &bbJoiner{
		sets:        sets,
		lambda:      lambda,
		opt:         opt,
		res:         verify.NewResultSet(workers),
		states:      make([]*bbTask, workers),
		spawnCutoff: max(4*opt.Limit, 1024),
		maxDepth:    maxDepth(len(sets), opt.Epsilon),
	}
	for i := range j.states {
		j.states[i] = &bbTask{j: j}
	}
	root := make([]uint32, len(sets)) // read-only: every step copies what it keeps
	for i := range root {
		root[i] = uint32(i)
	}
	roots := make([]exec.Task, opt.Repetitions)
	for rep := range roots {
		seed := bbRepSeed(opt.Seed, rep)
		roots[rep] = func(c *exec.Ctx) { j.states[c.Worker()].recurse(c, root, 0, seed) }
	}
	exec.Run(workers, roots...)
	counters := verify.Counters{Results: int64(j.res.Len())}
	for _, ts := range j.states {
		counters.PreCandidates += ts.pre
		counters.Candidates += ts.cand
	}
	return j.res.Pairs(), counters
}

// BruteForceJoinBB is the exact Braun-Blanquet self-join by exhaustive
// verification — the ground truth for JoinBB.
func BruteForceJoinBB(sets [][]uint32, lambda float64) []verify.Pair {
	var out []verify.Pair
	for i := 0; i < len(sets); i++ {
		for k := i + 1; k < len(sets); k++ {
			if intset.BraunBlanquetAtLeast(sets[i], sets[k], lambda) {
				out = append(out, verify.Pair{A: uint32(i), B: uint32(k)})
			}
		}
	}
	return out
}

type bbJoiner struct {
	sets        [][]uint32
	lambda      float64
	opt         BBOptions
	res         *verify.ResultSet
	states      []*bbTask // one per worker
	spawnCutoff int
	maxDepth    int
}

func bbRepSeed(seed uint64, rep int) uint64 {
	return tabhash.Mix64(seed + uint64(rep)*0xb1e55)
}

// bbChildSeed derives a child node's seed from the parent seed and the
// token whose bucket formed the child — stable under any scheduling.
func bbChildSeed(seed uint64, tok uint32) uint64 {
	return tabhash.DeriveSeed(seed, 0, uint64(tok))
}

// bbTask is one worker's context: its share of the candidate counters,
// summed when the join ends.
type bbTask struct {
	j         *bbJoiner
	pre, cand int64
}

// recurse is Algorithm 1, verbatim: BRUTEFORCE, then split on a fresh
// random hash over the token universe. The hash is seeded per node from
// the path, so the tree is independent of execution order.
func (ts *bbTask) recurse(c *exec.Ctx, node []uint32, depth int, seed uint64) {
	j := ts.j
	node = ts.bruteForce(node)
	if len(node) < 2 {
		return
	}
	if depth >= j.maxDepth {
		ts.bruteForcePairs(node)
		return
	}
	// Line 3: r <- SEEDHASHFUNCTION(). A tabulation hash to [0,1) shared
	// by the whole node.
	r := tabhash.NewTable32(tabhash.NewSplitMix64(seed).Next())
	const scale = 1.0 / (1 << 64)
	buckets := make(map[uint32][]uint32)
	for _, id := range node {
		x := j.sets[id]
		threshold := 1 / (j.lambda * float64(len(x)))
		for _, tok := range x {
			// Line 6: if r(j) < 1/(λ|x|) then S_j <- S_j ∪ {x}.
			if float64(r.Hash(tok))*scale < threshold {
				buckets[tok] = append(buckets[tok], id)
			}
		}
	}
	// Line 7: recurse on each non-empty S_j.
	spawn := len(node) > j.spawnCutoff
	for tok, child := range buckets {
		if len(child) < 2 {
			continue
		}
		cseed := bbChildSeed(seed, tok)
		if spawn {
			c.Spawn(func(c *exec.Ctx) { j.states[c.Worker()].recurse(c, child, depth+1, cseed) })
		} else {
			ts.recurse(c, child, depth+1, cseed)
		}
	}
}

// bruteForce is Algorithm 2, verbatim: exact token counts over the node,
// recomputed after each removal.
func (ts *bbTask) bruteForce(node []uint32) []uint32 {
	j := ts.j
	for {
		if len(node) <= j.opt.Limit {
			ts.bruteForcePairs(node)
			return nil
		}
		// Lines 5-7: count[j] over the node.
		counts := make(map[uint32]int32)
		for _, id := range node {
			for _, tok := range j.sets[id] {
				counts[tok]++
			}
		}
		threshold := (1 - j.opt.Epsilon) * j.lambda
		removed := false
		// Lines 8-11.
		for idx, id := range node {
			x := j.sets[id]
			sum := int64(0)
			for _, tok := range x {
				sum += int64(counts[tok] - 1)
			}
			// Average of |x∩y|/|x| over y in the node, an upper bound on
			// the average Braun-Blanquet similarity.
			avg := float64(sum) / (float64(len(x)) * float64(len(node)-1))
			if avg > threshold {
				ts.bruteForcePoint(id, node[:idx])
				ts.bruteForcePoint(id, node[idx+1:])
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

func (ts *bbTask) checkPair(a, b uint32) {
	j := ts.j
	ts.pre++
	if j.res.Contains(a, b) {
		return
	}
	// Size filter under Braun-Blanquet: BB <= |small| / |large|.
	la, lb := len(j.sets[a]), len(j.sets[b])
	if min(la, lb) < intset.MinShare(max(la, lb), j.lambda) {
		return
	}
	ts.cand++
	if intset.BraunBlanquetAtLeast(j.sets[a], j.sets[b], j.lambda) {
		j.res.Add(a, b)
	}
}

func (ts *bbTask) bruteForcePairs(node []uint32) {
	for i := 0; i < len(node); i++ {
		for k := i + 1; k < len(node); k++ {
			ts.checkPair(node[i], node[k])
		}
	}
}

func (ts *bbTask) bruteForcePoint(id uint32, others []uint32) {
	for _, other := range others {
		if other != id {
			ts.checkPair(id, other)
		}
	}
}
