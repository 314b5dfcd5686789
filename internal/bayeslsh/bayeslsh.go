// Package bayeslsh implements a BayesLSH-lite style approximate similarity
// join (Chakrabarti et al., TKDD 2015) as the third comparator of the
// paper's evaluation (Section V-D).
//
// It is MinHash LSH at k = 1 with a sequential sketch test. Candidate
// generation follows the original package's LSH mode: repetitions of
// single-MinHash bucketing, run by lshjoin.Repeat, the repetition loop of
// the MINHASH join, so the buckets are lshjoin's and every bucket is
// finished by verify.Pipeline, the kernel CPSJoin's nodes end in. The one
// stage of its own is the test: a candidate's sketch is compared word by
// word, and the pair is dropped as soon as the upper confidence bound on its
// bit-agreement rate falls below what similarity λ implies; survivors get an
// exact similarity computation (the "-lite" configuration benchmarked in the
// paper). The original uses Bayesian posterior tail bounds on uniform
// priors; we use the equivalent Hoeffding upper confidence bound, which
// prunes at the same asymptotic rate and keeps the false-negative
// probability bounded by the same per-stage budget. The test becomes one
// integer bound per word (bounds), and the pipeline runs it as a refinement
// of its sketch filter (verify.Pipeline.UseSequentialTest).
//
// The paper found BayesLSH uniformly slower than CPSJoin, MINHASH and
// ALLPAIRS. On the same kernel it still is, and what remains is its k = 1
// candidate generation: at λ 0.5 on the 40 000-set ledger shapes it looks at
// 3.3–4.2× CPSJoin's pre-candidates (115 M against 28 M flat), and the
// sketch filter over them is most of its join; the buckets themselves cost
// little.
package bayeslsh

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/exec"
	"repro/internal/lshjoin"
	"repro/internal/prep"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// Options configures the BayesLSH-lite join.
type Options struct {
	// TargetRecall is the candidate-generation recall ϕ (default 0.95,
	// the BayesLSH package default). It fixes the number of single-hash
	// repetitions: a pair at similarity λ collides per repetition with
	// probability λ, so L = ceil(ln(1/(1-ϕ))/λ).
	TargetRecall float64
	// SketchWords is the sketch width used by the sequential test
	// (default 8 words = 512 bits). Negative disables the test — the
	// repository-wide convention — in which case candidates go straight
	// from the size filter to exact verification.
	SketchWords int
	// T is the MinHash signature pool size (default 128).
	T int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the worker count of the parallel execution layer
	// (internal/exec): repetitions run as independent tasks merging into a
	// shared concurrent result set. 0 is one worker, negative selects
	// GOMAXPROCS. Each repetition's bucket position is drawn before any
	// task starts, so the result set is identical across worker counts
	// for a fixed Seed.
	Workers int
}

// gamma is the sequential test's false-pruning budget over all words.
const gamma = 0.05

func (o *Options) withDefaults() Options {
	opt := Options{}
	if o != nil {
		opt = *o
	}
	if opt.TargetRecall <= 0 || opt.TargetRecall >= 1 {
		opt.TargetRecall = 0.95
	}
	if opt.SketchWords == 0 {
		opt.SketchWords = 8
	}
	if opt.T <= 0 {
		opt.T = 128
	}
	return opt
}

// Join computes an approximate self-join at Jaccard threshold lambda.
func Join(sets [][]uint32, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	opt := o.withDefaults()
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	ix := prep.BuildParallel(sets, opt.T, max(opt.SketchWords, 0), opt.Seed, exec.EffectiveWorkers(opt.Workers))
	return JoinIndexed(ix, lambda, o)
}

// JoinIndexed runs the join against a prebuilt index, excluding
// preprocessing from the join work. The index fixes T and the sketch
// width; an index without sketches (or a negative SketchWords) disables
// the sequential test.
func JoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	defer runtime.KeepAlive(ix) // a loaded index's matrices live only as long as ix
	opt := o.withDefaults()
	if len(ix.Sets) < 2 {
		return nil, verify.Counters{}
	}
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("bayeslsh: lambda %v out of (0,1)", lambda))
	}
	l := max(1, int(math.Ceil(math.Log(1/(1-opt.TargetRecall))/lambda)))

	// Draw every repetition's bucket position up front so the join's
	// randomness is fixed before any task starts (identical result sets
	// across worker counts).
	rng := tabhash.NewSplitMix64(opt.Seed + 0x1717)
	positions := make([][]int, l)
	for rep := range positions {
		positions[rep] = []int{rng.Intn(ix.T)}
	}

	workers := exec.EffectiveWorkers(opt.Workers)
	bf := verify.NewPipeline(ix.Sets, lambda, workers)
	if opt.SketchWords > 0 && ix.Words > 0 {
		bf.UseSequentialTest(ix.Words, ix.Sketches, bounds(ix.Words, lambda, gamma))
	}
	return lshjoin.Repeat(ix, bf, positions, opt.Seed, workers)
}

// bounds is the sequential test in integers: bounds[w-1] is the largest
// Hamming distance over the first w sketch words at which a candidate
// survives, -1 if none does. The test drops a candidate after word w when
// even an optimistic read of its bit-agreement rate, agree/m plus the
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
