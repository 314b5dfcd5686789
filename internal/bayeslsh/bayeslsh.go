// Package bayeslsh implements a BayesLSH-lite style approximate similarity
// join (Chakrabarti et al., TKDD 2015) as the third comparator of the
// paper's evaluation (Section V-D).
//
// Candidate generation follows the original package's LSH mode: repetitions
// of single-MinHash bucketing (k = 1). Verification processes each
// candidate's sketch incrementally, word by word, pruning as soon as the
// upper confidence bound on the similarity estimate falls below the
// threshold; survivors get an exact similarity computation (the "-lite"
// configuration benchmarked in the paper). The original uses Bayesian
// posterior tail bounds on uniform priors; we use the equivalent Hoeffding
// upper confidence bound on the bit-agreement rate, which prunes at the
// same asymptotic rate and keeps the false-negative probability bounded by
// the same per-stage budget.
//
// The paper found BayesLSH uniformly slower than CPSJoin, MINHASH and
// ALLPAIRS, mostly due to its k = 1 candidate generation; this
// implementation exists to let the benchmark harness test that claim.
package bayeslsh

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/exec"
	"repro/internal/prep"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// Options configures the BayesLSH-lite join.
type Options struct {
	// L is the number of single-hash repetitions; 0 derives it from
	// TargetRecall: a pair at similarity λ collides per repetition with
	// probability λ, so L = ceil(ln(1/(1-ϕ))/λ).
	L int
	// TargetRecall is the candidate-generation recall ϕ (default 0.95,
	// the BayesLSH package default).
	TargetRecall float64
	// SketchWords is the sketch width used for incremental pruning
	// (default 8 words = 512 bits). Negative disables sketch pruning —
	// the repository-wide convention — in which case candidates go
	// straight from the size filter to exact verification.
	SketchWords int
	// Gamma is the per-stage false-pruning budget (default 0.05).
	Gamma float64
	// T is the MinHash signature pool size (default 128).
	T int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the worker count of the parallel execution layer
	// (internal/exec): repetitions run as independent tasks merging into a
	// shared concurrent result set. 0 runs sequentially, negative selects
	// GOMAXPROCS. Each repetition's bucket position is drawn before any
	// task starts, so the result set is identical across worker counts
	// for a fixed Seed.
	Workers int
}

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
	if opt.Gamma <= 0 || opt.Gamma >= 1 {
		opt.Gamma = 0.05
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
	words := opt.SketchWords
	if words < 0 {
		words = 0
	}
	ix := prep.BuildParallel(sets, opt.T, words, opt.Seed, exec.EffectiveWorkers(opt.Workers))
	return JoinIndexed(ix, lambda, o)
}

// JoinIndexed runs the join against a prebuilt index, excluding
// preprocessing from the join work. The index fixes T and the sketch
// width; an index without sketches (or a negative SketchWords) disables
// the incremental pruner.
func JoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	opt := o.withDefaults()
	opt.T = ix.T
	if opt.SketchWords > 0 && ix.Words > 0 {
		opt.SketchWords = ix.Words
	} else {
		opt.SketchWords = -1
	}
	sets := ix.Sets
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("bayeslsh: lambda %v out of (0,1)", lambda))
	}
	l := opt.L
	if l <= 0 {
		l = int(math.Ceil(math.Log(1/(1-opt.TargetRecall)) / lambda))
		if l < 1 {
			l = 1
		}
	}

	sigs := ix.Sigs
	var sketches []uint64
	var pruner *Pruner
	w := 0
	if opt.SketchWords > 0 {
		w = opt.SketchWords
		sketches = ix.Sketches
		pruner = NewPruner(w, lambda, opt.Gamma)
	}

	// Draw every repetition's bucket position up front so the join's
	// randomness is fixed before any task starts (identical result sets
	// across worker counts).
	rng := tabhash.NewSplitMix64(opt.Seed + 0x1717)
	positions := make([]int, l)
	for rep := range positions {
		positions[rep] = rng.Intn(opt.T)
	}

	workers := exec.EffectiveWorkers(opt.Workers)
	res := verify.NewSink(workers)
	v := verify.NewVerifier(sets, lambda)
	var atomics verify.AtomicCounters

	runRep := func(rep int) {
		var pre, cand int64
		pos := positions[rep]
		buckets := make(map[uint32][]uint32, len(sets)/4+1)
		for id := range sets {
			val := sigs[id*opt.T+pos]
			buckets[val] = append(buckets[val], uint32(id))
		}
		for _, bucket := range buckets {
			if len(bucket) < 2 {
				continue
			}
			for i := 0; i < len(bucket); i++ {
				for k := i + 1; k < len(bucket); k++ {
					a, b := bucket[i], bucket[k]
					pre++
					if res.Contains(a, b) {
						continue
					}
					if !v.SizeCompatible(len(sets[a]), len(sets[b])) {
						continue
					}
					if pruner != nil {
						sa := sketches[int(a)*w : (int(a)+1)*w]
						sb := sketches[int(b)*w : (int(b)+1)*w]
						if !pruner.Survives(sa, sb) {
							continue
						}
					}
					cand++
					if v.Verify(a, b) {
						res.Add(a, b)
					}
				}
			}
		}
		atomics.Add(pre, cand)
	}

	if workers <= 1 {
		for rep := 0; rep < l; rep++ {
			runRep(rep)
		}
	} else {
		roots := make([]exec.Task, l)
		for rep := range roots {
			rep := rep
			roots[rep] = func(c *exec.Ctx) { runRep(rep) }
		}
		exec.Run(workers, roots...)
	}
	counters := atomics.Counters()
	counters.Results = int64(res.Len())
	return res.Pairs(), counters
}

// Pruner performs incremental sketch comparison with early termination:
// after each 64-bit word, the candidate is dropped if even an optimistic
// (upper confidence bound) read of the agreement rate cannot reach the
// threshold.
type Pruner struct {
	words  int
	lambda float64
	// slack[w] is the confidence radius after w words.
	slack []float64
}

// NewPruner builds a pruner for the given sketch width, threshold, and
// per-stage error budget gamma.
func NewPruner(words int, lambda, gamma float64) *Pruner {
	p := &Pruner{words: words, lambda: lambda, slack: make([]float64, words+1)}
	// Hoeffding: Pr[p̂ < p - eps] <= exp(-2 eps² m). Budget gamma/words
	// per stage keeps the total false-pruning probability below gamma.
	perStage := gamma / float64(words)
	for w := 1; w <= words; w++ {
		m := float64(64 * w)
		p.slack[w] = math.Sqrt(math.Log(1/perStage) / (2 * m))
	}
	return p
}

// Survives reports whether the candidate survives incremental pruning.
func (p *Pruner) Survives(a, b []uint64) bool {
	need := (1 + p.lambda) / 2 // required bit-agreement rate
	agree := 0
	for w := 0; w < p.words; w++ {
		agree += 64 - bits.OnesCount64(a[w]^b[w])
		m := float64(64 * (w + 1))
		ucb := float64(agree)/m + p.slack[w+1]
		if ucb < need {
			return false
		}
	}
	return true
}
