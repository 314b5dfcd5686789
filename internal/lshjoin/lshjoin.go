// Package lshjoin implements the MINHASH locality-sensitive hashing
// similarity join of Algorithm 3 in the CPSJoin paper: L independent
// repetitions of bucketing on k concatenated MinHash values, each bucket
// finished by the same BRUTEFORCEPAIRS subroutine as CPSJoin's nodes —
// verify.Pipeline, size filter, 1-bit minwise sketch filter, dedup, exact
// verification. This package owns the bucketing and the choice of k and L;
// it has no pair loop of its own, and its repetitions run on verify.Repeat,
// the repetition loop and stop rule of every approximate join. Its buckets
// are numbered by internal/group, the grouper CPSJoin's split shares, in
// order of first appearance, so every run visits them in the same order.
//
// The number of concatenated hash functions k is chosen per dataset and
// threshold by estimating the combined cost of bucket lookups and bucket
// pair verification for k in {2, ..., 10}, as sketched by Cohen et al. and
// described in Section V-B of the paper. The repetition count follows from
// the target recall ϕ: a pair at similarity λ collides with probability λᵏ
// per repetition, so L = ceil(ln(1/(1-ϕ)) / λᵏ) buckets it at least once
// with probability ϕ. The sketch filter then passes a pair near λ with
// probability about 1 − δ, once for the whole join (a pair's sketches do
// not change between repetitions), so with it on such a pair is reported
// with probability about ϕ·(1 − δ): 0.898 was measured at J ∈ [0.50, 0.52)
// with the defaults. Pairs well above λ keep ϕ.
//
// BayesJoin is the paper's third comparator (Section V-D), BayesLSH-lite
// (Chakrabarti et al., TKDD 2015): the same join at k = 1, with a
// sequential sketch test in place of the sketch filter. It draws its own
// bucket positions and reads TargetRecall with its own default; K and Delta
// do not apply to it. Its test, too, runs once per pair for the whole join
// and wrongly prunes a pair at λ with probability at most γ = 0.05, so such
// a pair is reported with probability about ϕ·(1 − γ), 0.9025 at the
// default ϕ = 0.95; pairs well above λ keep ϕ.
package lshjoin

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/exec"
	"repro/internal/group"
	"repro/internal/prep"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// Options configures the MinHash LSH join and BayesLSH-lite.
type Options struct {
	// K is the number of concatenated MinHash values per bucket key, at
	// most T (they are distinct positions of the signature). 0 selects K
	// automatically by cost estimation over {2..10}. BayesJoin ignores it:
	// its k is 1.
	K int
	// TargetRecall is the per-pair recall probability ϕ of candidate
	// generation (default 0.9; 0.95 for BayesJoin, the BayesLSH package
	// default). The default repetition count L follows from it and K,
	// capped at maxL for Join.
	TargetRecall float64
	// T is the signature length used as the pool of MinHash values
	// (default 128, as in the paper's implementation).
	T int
	// SketchWords is the 1-bit minwise sketch width in 64-bit words
	// (default 8), used by Join's sketch filter and BayesJoin's sequential
	// test. 0 keeps the default; negative disables either, and candidates
	// go straight from the size filter to exact verification.
	SketchWords int
	// Delta is the sketch filter's false-negative probability (default
	// 0.05). BayesJoin ignores it: its test has a budget of its own
	// (gamma).
	Delta float64
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the worker count of the parallel execution layer
	// (internal/exec): repetitions run as independent tasks merging into a
	// shared concurrent result set. 0 is one worker, negative selects
	// GOMAXPROCS. The bucket positions of every repetition are drawn
	// before any task starts, so the result set is identical across worker
	// counts for a fixed Seed (StopAtRecall excepted: the early-stopping
	// point depends on scheduling).
	Workers int
	// GroundTruth, when non-nil together with StopAtRecall > 0, runs
	// repetitions until recall against the known exact result reaches
	// StopAtRecall, or until 4×L (the paper's experimental procedure,
	// Section VI-2; verify.Repeat's stop rule). The positions of the extra
	// repetitions are drawn after the first L, which stay as they are. All
	// workers share one atomic view of the accumulated recall. Buckets are
	// visited in a fixed order, so at one worker the stopping point, and
	// with it the result set and counters, repeat from run to run.
	GroundTruth  []verify.Pair
	StopAtRecall float64
}

// withDefaults fills in every default, taking phi for TargetRecall.
func (o *Options) withDefaults(phi float64) Options {
	opt := Options{}
	if o != nil {
		opt = *o
	}
	if opt.TargetRecall <= 0 || opt.TargetRecall >= 1 {
		opt.TargetRecall = phi
	}
	if opt.T <= 0 {
		opt.T = 128
	}
	if opt.SketchWords == 0 {
		opt.SketchWords = 8
	}
	if opt.Delta <= 0 || opt.Delta >= 1 {
		opt.Delta = 0.05
	}
	return opt
}

// maxL caps the derived repetition count: a guard against tiny λᵏ.
const maxL = 512

// gamma is BayesJoin's sequential test's false-pruning budget over all
// words.
const gamma = 0.05

// Join computes an approximate self-join at Jaccard threshold lambda with
// MinHash LSH. Returned pairs are deduplicated and exact-verified (100%
// precision); see the package doc for the recall each pair gets.
func Join(sets [][]uint32, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	return JoinIndexed(build(sets, o), lambda, o)
}

// BayesJoin computes an approximate self-join at Jaccard threshold lambda
// with BayesLSH-lite.
func BayesJoin(sets [][]uint32, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	return BayesJoinIndexed(build(sets, o), lambda, o)
}

// build preprocesses sets with o's signature length, sketch width and seed.
func build(sets [][]uint32, o *Options) *prep.Index {
	opt := o.withDefaults(0)
	return prep.BuildParallel(sets, opt.T, max(opt.SketchWords, 0), opt.Seed, exec.EffectiveWorkers(opt.Workers))
}

// JoinIndexed runs the MinHash LSH join against a prebuilt index
// (signatures and sketches), excluding preprocessing from the join work, as
// in the paper's measurements. The index fixes T and the sketch width.
func JoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	defer runtime.KeepAlive(ix) // a loaded index's matrices live only as long as ix
	opt := o.withDefaults(0.9)
	if len(ix.Sets) < 2 {
		return nil, verify.Counters{}
	}
	bf := pipeline(ix, lambda, opt)
	if opt.SketchWords > 0 && ix.Words > 0 {
		bf.UseSketches(ix.Words, ix.Sketches, opt.Delta)
	}
	rng := tabhash.NewSplitMix64(opt.Seed + 0x1f1f)
	// The k values of a bucket key sit at distinct positions: no more than T.
	k := min(opt.K, ix.T)
	if k <= 0 {
		k = chooseK(ix.Sigs, ix.T, lambda, opt.TargetRecall, rng)
	}
	return repeat(ix, bf, rng, k, min(Repetitions(lambda, k, opt.TargetRecall), maxL), opt.Seed)
}

// BayesJoinIndexed runs BayesLSH-lite against a prebuilt index, excluding
// preprocessing from the join work. The index fixes T and the sketch width;
// one without sketches (or a negative SketchWords) disables the sequential
// test. Candidate generation is the original package's LSH mode, L =
// ceil(ln(1/(1-ϕ))/λ) repetitions of single-MinHash bucketing. The test
// compares a candidate's sketch word by word and drops the pair once the
// upper confidence bound on its bit-agreement rate falls below what λ
// implies; survivors are verified exactly (the "-lite" configuration the
// paper benchmarks). The original bounds a Bayesian posterior on a uniform
// prior; the Hoeffding bound here (bounds) prunes at the same asymptotic rate
// within the same false-negative budget. On the kernel CPSJoin uses it is
// still the slower join, as the paper found: at λ 0.5 on the 40 000-set
// ledger shapes its k = 1 buckets give it 3.3–4.2× CPSJoin's pre-candidates.
func BayesJoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	defer runtime.KeepAlive(ix) // a loaded index's matrices live only as long as ix
	opt := o.withDefaults(0.95)
	if len(ix.Sets) < 2 {
		return nil, verify.Counters{}
	}
	bf := pipeline(ix, lambda, opt)
	if opt.SketchWords > 0 && ix.Words > 0 {
		bf.UseSequentialTest(ix.Words, ix.Sketches, bounds(ix.Words, lambda, gamma))
	}
	rng := tabhash.NewSplitMix64(opt.Seed + 0x1717)
	return repeat(ix, bf, rng, 1, Repetitions(lambda, 1, opt.TargetRecall), opt.Seed)
}

// pipeline returns the brute-force pipeline of a join over ix at lambda,
// with opt's worker count and recall target and the sketch filter off.
func pipeline(ix *prep.Index, lambda float64, opt Options) *verify.Pipeline {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("lshjoin: lambda %v out of (0,1)", lambda))
	}
	bf := verify.NewPipeline(ix.Sets, lambda, exec.EffectiveWorkers(opt.Workers))
	bf.Tracker = verify.NewRecallTracker(opt.GroundTruth, opt.StopAtRecall)
	return bf
}

// repeat runs an LSH join's repetitions on verify.Repeat, l of them by
// default: each buckets every set by the hash of its signature values at k
// distinct positions and finishes each bucket with bf's BRUTEFORCEPAIRS.
// Every repetition's positions are drawn from rng before any task starts,
// one stream in repetition order — the join's only randomness is then fixed
// up front, which is what makes the result set identical across worker
// counts, and a join that may run past l draws the extra positions after
// the first l.
func repeat(ix *prep.Index, bf *verify.Pipeline, rng *tabhash.SplitMix64, k, l int, seed uint64) ([]verify.Pair, verify.Counters) {
	positions := make([][]int, bf.Budget(l))
	for rep := range positions {
		positions[rep] = make([]int, k)
		samplePositions(rng, positions[rep], ix.T)
	}
	hasher := tabhash.NewTable64(seed + 0x7e7e)
	type worker struct { // one worker's half of bf and the grouper of its buckets
		s *verify.Scratch
		g group.Grouper[uint64]
	}
	newWorker := func(s *verify.Scratch) *worker { return &worker{s: s} }
	return verify.Repeat(bf, l, newWorker, func(_ *exec.Ctx, w *worker, rep int) {
		for _, bucket := range bucketize(&w.g, ix.Sigs, ix.T, positions[rep], hasher) {
			if bf.Tracker.Reached() {
				return
			}
			w.s.BruteForcePairs(bucket)
		}
	})
}

// Repetitions returns the repetition count needed for per-pair recall phi
// at bucket collision probability lambda^k.
func Repetitions(lambda float64, k int, phi float64) int {
	p := math.Pow(lambda, float64(k))
	l := int(math.Ceil(math.Log(1/(1-phi)) / p))
	if l < 1 {
		l = 1
	}
	return l
}

// samplePositions fills pos with distinct indices from [t], by rejection:
// len(pos) must not exceed t.
func samplePositions(rng *tabhash.SplitMix64, pos []int, t int) {
	for i := range pos {
		pos[i] = rng.Intn(t)
		for slices.Contains(pos[:i], pos[i]) {
			pos[i] = rng.Intn(t)
		}
	}
}

// number numbers the sets by the hash of their signature values at the
// sampled positions, in order of first appearance (group.Grouper.Group):
// nums[id] is the bucket of set id and counts[b] the size of bucket b.
func number(g *group.Grouper[uint64], sigs []uint32, t int, positions []int, hasher *tabhash.Table64) (nums []uint32, distinct []uint64, counts []uint32) {
	keys := g.Keys(len(sigs) / t)
	for id := range keys {
		sig := sigs[id*t : (id+1)*t]
		key := uint64(0x9e3779b97f4a7c15)
		for _, p := range positions {
			key = hasher.Hash(key ^ uint64(sig[p]))
		}
		keys[id] = key
	}
	return g.Group(keys)
}

// bucketize groups set ids into buckets (number). The buckets come back in
// order of first appearance, so a join that stops at a recall target stops
// after the same buckets on every run; they are views into one array of
// ids.
func bucketize(g *group.Grouper[uint64], sigs []uint32, t int, positions []int, hasher *tabhash.Table64) [][]uint32 {
	nums, _, counts := number(g, sigs, t, positions, hasher)
	ids := make([]uint32, len(nums))
	buckets := make([][]uint32, len(counts))
	start := 0
	for b, n := range counts {
		buckets[b] = ids[start : start : start+int(n)]
		start += int(n)
	}
	for id, b := range nums {
		buckets[b] = append(buckets[b], uint32(id))
	}
	return buckets
}

// chooseK estimates, for each k in {2..10} (and at most t), the total cost
// of the splitting step (bucket construction) plus within-bucket comparisons
// across the L(k) repetitions required for the target recall, by performing
// one trial split per k and counting bucket sizes. It returns the k with the
// lowest estimate (Section V-B of the paper).
func chooseK(sigs []uint32, t int, lambda, phi float64, rng *tabhash.SplitMix64) int {
	const (
		costLookup  = 1.0 // relative cost of placing one set in a bucket
		costCompare = 0.4 // relative cost of one sketch comparison
	)
	hasher := tabhash.NewTable64(rng.Next())
	var g group.Grouper[uint64]
	bestK, bestCost := min(2, t), math.Inf(1)
	for k := 2; k <= min(10, t); k++ {
		positions := make([]int, k)
		samplePositions(rng, positions, t)
		_, _, counts := number(&g, sigs, t, positions, hasher)
		pairs := 0.0
		for _, c := range counts {
			n := float64(c)
			pairs += n * (n - 1) / 2
		}
		l := float64(Repetitions(lambda, k, phi))
		cost := l * (costLookup*float64(len(sigs)/t) + costCompare*pairs)
		if cost < bestCost {
			bestCost = cost
			bestK = k
		}
	}
	return bestK
}

// bounds is BayesJoin's sequential test in integers: bounds[w-1] is the
// largest Hamming distance over the first w sketch words at which a
// candidate survives, -1 if none does. The test drops a candidate after word
// w when even an optimistic read of its bit-agreement rate, agree/m plus the
// Hoeffding radius at m = 64w bits, cannot reach the rate (1+λ)/2 that
// similarity λ implies: Pr[p̂ < p - ε] ≤ exp(-2ε²m), with a budget of
// gamma/words per word, keeps the chance of dropping a true pair below
// gamma over all of them.
func bounds(words int, lambda, gamma float64) []int {
	out := make([]int, words)
	perStage := gamma / float64(words)
	need := (1 + lambda) / 2 // required bit-agreement rate
	for w := 1; w <= words; w++ {
		m := float64(64 * w)
		slack := math.Sqrt(math.Log(1/perStage) / (2 * m))
		// agree is 64w minus the distance; agree/m only grows with agree.
		d := 64 * w
		for d >= 0 && float64(64*w-d)/m+slack < need {
			d--
		}
		out[w-1] = d
	}
	return out
}
