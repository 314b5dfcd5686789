// Package lshjoin implements the MINHASH locality-sensitive hashing
// similarity join of Algorithm 3 in the CPSJoin paper: L independent
// repetitions of bucketing on k concatenated MinHash values, each bucket
// finished by the same BRUTEFORCEPAIRS subroutine as CPSJoin's nodes —
// verify.Pipeline, size filter, 1-bit minwise sketch filter, dedup, exact
// verification. This package owns the bucketing and the choice of k and L;
// it has no pair loop of its own.
//
// The number of concatenated hash functions k is chosen per dataset and
// threshold by estimating the combined cost of bucket lookups and bucket
// pair verification for k in {2, ..., 10}, as sketched by Cohen et al. and
// described in Section V-B of the paper. The repetition count follows from
// the target recall: a pair at similarity λ collides with probability λᵏ
// per repetition, so L = ceil(ln(1/(1-ϕ)) / λᵏ).
package lshjoin

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/exec"
	"repro/internal/prep"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// Options configures the MinHash LSH join.
type Options struct {
	// K is the number of concatenated MinHash values per bucket key, at
	// most T (they are distinct positions of the signature). 0 selects K
	// automatically by cost estimation over {2..10}.
	K int
	// TargetRecall is the per-pair recall probability ϕ (default 0.9). The
	// repetition count L follows from it and K, capped at maxL.
	TargetRecall float64
	// T is the signature length used as the pool of MinHash values
	// (default 128, as in the paper's implementation).
	T int
	// SketchWords is the 1-bit minwise sketch width in 64-bit words
	// (default 8). 0 keeps the default; negative disables the filter.
	SketchWords int
	// Delta is the sketch false-negative probability (default 0.05).
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
	// GroundTruth, when non-nil together with StopAtRecall > 0, stops
	// repetitions as soon as recall against the known exact result reaches
	// StopAtRecall (the paper's experimental procedure, Section VI-2). All
	// workers share one atomic view of the accumulated recall. Buckets are
	// visited in a fixed order, so at one worker the stopping point, and
	// with it the result set and counters, repeat from run to run.
	GroundTruth  []verify.Pair
	StopAtRecall float64
}

func (o *Options) withDefaults() Options {
	opt := Options{}
	if o != nil {
		opt = *o
	}
	if opt.TargetRecall <= 0 || opt.TargetRecall >= 1 {
		opt.TargetRecall = 0.9
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

// Join computes an approximate self-join at Jaccard threshold lambda,
// reporting each true result pair with probability at least TargetRecall.
// Returned pairs are deduplicated and exact-verified (100% precision).
func Join(sets [][]uint32, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	opt := o.withDefaults()
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	ix := prep.BuildParallel(sets, opt.T, max(opt.SketchWords, 0), opt.Seed, exec.EffectiveWorkers(opt.Workers))
	return JoinIndexed(ix, lambda, o)
}

// JoinIndexed runs the join against a prebuilt index (signatures and
// sketches), excluding preprocessing from the join work, as in the paper's
// measurements. The index fixes T and the sketch width.
func JoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	defer runtime.KeepAlive(ix) // a loaded index's matrices live only as long as ix
	opt := o.withDefaults()
	opt.T = ix.T
	sets := ix.Sets
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("lshjoin: lambda %v out of (0,1)", lambda))
	}

	sigs := ix.Sigs
	workers := exec.EffectiveWorkers(opt.Workers)
	bf := verify.NewPipeline(sets, lambda, workers)
	bf.Tracker = verify.NewRecallTracker(opt.GroundTruth, opt.StopAtRecall)
	if opt.SketchWords > 0 && ix.Words > 0 {
		bf.UseSketches(ix.Words, ix.Sketches, opt.Delta)
	}

	rng := tabhash.NewSplitMix64(opt.Seed + 0x1f1f)

	// The k values of a bucket key sit at distinct positions: no more than T.
	k := min(opt.K, opt.T)
	if k <= 0 {
		k = chooseK(sets, sigs, opt.T, lambda, opt.TargetRecall, rng)
	}
	l := min(Repetitions(lambda, k, opt.TargetRecall), maxL)

	// Draw every repetition's bucket positions up front, one stream in
	// repetition order: the join's only randomness is then fixed before
	// any task starts, which is what makes the result set identical across
	// worker counts.
	allPositions := make([][]int, l)
	for rep := 0; rep < l; rep++ {
		allPositions[rep] = make([]int, k)
		samplePositions(rng, allPositions[rep], opt.T)
	}

	hasher := tabhash.NewTable64(opt.Seed + 0x7e7e)
	scratch := bf.NewScratches(workers)
	roots := make([]exec.Task, l)
	for rep := range roots {
		roots[rep] = func(c *exec.Ctx) {
			if bf.Tracker.Reached() {
				return // before paying for the buckets
			}
			s := scratch[c.Worker()]
			for _, bucket := range bucketize(sets, sigs, opt.T, allPositions[rep], hasher) {
				if bf.Tracker.Reached() {
					return
				}
				s.BruteForcePairs(bucket)
			}
		}
	}
	exec.Run(workers, roots...)
	return bf.Res.Pairs(), bf.Counters(scratch)
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
	seen := make(map[int]bool, len(pos))
	for i := range pos {
		for {
			p := rng.Intn(t)
			if !seen[p] {
				seen[p] = true
				pos[i] = p
				break
			}
		}
	}
}

// bucketize groups set ids by the hash of their signature values at the
// sampled positions. The buckets come back in order of first appearance
// (the map only numbers them), so a join that stops at a recall target
// stops after the same buckets on every run; they are views into one
// array of ids.
func bucketize(sets [][]uint32, sigs []uint32, t int, positions []int, hasher *tabhash.Table64) [][]uint32 {
	index := make(map[uint64]int32, len(sets)/2)
	of := make([]int32, len(sets)) // the bucket of each set
	var sizes []int32
	for id := range sets {
		sig := sigs[id*t : (id+1)*t]
		key := uint64(0x9e3779b97f4a7c15)
		for _, p := range positions {
			key = hasher.Hash(key ^ uint64(sig[p]))
		}
		b, ok := index[key]
		if !ok {
			b = int32(len(sizes))
			index[key] = b
			sizes = append(sizes, 0)
		}
		of[id] = b
		sizes[b]++
	}
	ids := make([]uint32, len(sets))
	buckets := make([][]uint32, len(sizes))
	start := 0
	for b, n := range sizes {
		buckets[b] = ids[start : start : start+int(n)]
		start += int(n)
	}
	for id, b := range of {
		buckets[b] = append(buckets[b], uint32(id))
	}
	return buckets
}

// chooseK estimates, for each k in {2..10} (and at most t), the total cost
// of the splitting step (bucket construction) plus within-bucket comparisons
// across the L(k) repetitions required for the target recall, by performing
// one trial split per k and counting bucket sizes. It returns the k with the
// lowest estimate (Section V-B of the paper).
func chooseK(sets [][]uint32, sigs []uint32, t int, lambda, phi float64, rng *tabhash.SplitMix64) int {
	const (
		costLookup  = 1.0 // relative cost of placing one set in a bucket
		costCompare = 0.4 // relative cost of one sketch comparison
	)
	hasher := tabhash.NewTable64(rng.Next())
	bestK, bestCost := min(2, t), math.Inf(1)
	for k := 2; k <= min(10, t); k++ {
		positions := make([]int, k)
		samplePositions(rng, positions, t)
		buckets := bucketize(sets, sigs, t, positions, hasher)
		pairs := 0.0
		for _, b := range buckets {
			n := float64(len(b))
			pairs += n * (n - 1) / 2
		}
		l := float64(Repetitions(lambda, k, phi))
		cost := l * (costLookup*float64(len(sets)) + costCompare*pairs)
		if cost < bestCost {
			bestCost = cost
			bestK = k
		}
	}
	return bestK
}
