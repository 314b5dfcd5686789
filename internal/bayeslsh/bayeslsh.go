// Package bayeslsh implements a BayesLSH-lite style approximate similarity
// join (Chakrabarti et al., TKDD 2015) as the third comparator of the
// paper's evaluation (Section V-D).
//
// Candidate generation follows the original package's LSH mode: repetitions
// of single-MinHash bucketing (k = 1). Verification processes each
// candidate's sketch incrementally, word by word, pruning as soon as the
// upper confidence bound on the similarity estimate falls below the
// threshold; survivors get an exact similarity computation (the "-lite"
// configuration benchmarked in the paper). The Pruner is this method's own
// stage, deliberately not the shared block kernel; what follows it — dedup
// against the result set, exact verification — is verify.Pipeline's, as for
// CPSJoin and MINHASH. The original uses Bayesian
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
	"runtime"

	"repro/internal/exec"
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
	// SketchWords is the sketch width used for incremental pruning
	// (default 8 words = 512 bits). Negative disables sketch pruning —
	// the repository-wide convention — in which case candidates go
	// straight from the size filter to exact verification.
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

// gamma is the pruner's false-pruning budget over all stages.
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
// the incremental pruner.
func JoinIndexed(ix *prep.Index, lambda float64, o *Options) ([]verify.Pair, verify.Counters) {
	defer runtime.KeepAlive(ix) // a loaded index's matrices live only as long as ix
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
	l := max(1, int(math.Ceil(math.Log(1/(1-opt.TargetRecall))/lambda)))

	sigs := ix.Sigs
	workers := exec.EffectiveWorkers(opt.Workers)
	tail := verify.NewPipeline(sets, lambda, workers)
	var sketches []uint64
	var pruner *Pruner
	w := 0
	if opt.SketchWords > 0 {
		w = opt.SketchWords
		sketches = ix.Sketches
		pruner = NewPruner(w, lambda, gamma)
	}

	// Draw every repetition's bucket position up front so the join's
	// randomness is fixed before any task starts (identical result sets
	// across worker counts).
	rng := tabhash.NewSplitMix64(opt.Seed + 0x1717)
	positions := make([]int, l)
	for rep := range positions {
		positions[rep] = rng.Intn(opt.T)
	}

	scratch := tail.NewScratches(workers)
	roots := make([]exec.Task, l)
	for rep, pos := range positions {
		roots[rep] = func(c *exec.Ctx) {
			s := scratch[c.Worker()]
			buckets := make(map[uint32][]uint32, len(sets)/4+1)
			for id := range sets {
				val := sigs[id*opt.T+pos]
				buckets[val] = append(buckets[val], uint32(id))
			}
			for _, bucket := range buckets {
				for i, a := range bucket {
					for _, b := range bucket[i+1:] {
						s.Pre++
						if !tail.SizeCompatible(a, b) {
							continue
						}
						if pruner != nil && !pruner.Survives(sketches[int(a)*w:][:w], sketches[int(b)*w:][:w]) {
							continue
						}
						s.Candidate(a, b)
					}
				}
			}
		}
	}
	exec.Run(workers, roots...)
	return tail.Res.Pairs(), tail.Counters(scratch)
}

// Pruner performs incremental sketch comparison with early termination:
// after each 64-bit word, the candidate is dropped if even an optimistic
// (upper confidence bound) read of the agreement rate cannot reach the
// threshold.
type Pruner struct {
	// slack[w] is the confidence radius after w words.
	slack []float64
	// maxDist[w] is the largest Hamming distance over the first w+1 words
	// that survives, -1 if none does: NewPruner's float test, made once per
	// distance so that Survives only compares integers.
	maxDist []int
}

// NewPruner builds a pruner for the given sketch width, threshold, and
// per-stage error budget gamma.
func NewPruner(words int, lambda, gamma float64) *Pruner {
	p := &Pruner{slack: make([]float64, words+1), maxDist: make([]int, words)}
	// Hoeffding: Pr[p̂ < p - eps] <= exp(-2 eps² m). Budget gamma/words
	// per stage keeps the total false-pruning probability below gamma.
	perStage := gamma / float64(words)
	need := (1 + lambda) / 2 // required bit-agreement rate
	for w := 1; w <= words; w++ {
		m := float64(64 * w)
		p.slack[w] = math.Sqrt(math.Log(1/perStage) / (2 * m))
		// The candidate is pruned when agree/m + slack < need, agree being
		// 64w minus the distance; agree/m only grows with agree.
		d := 64 * w
		for d >= 0 && float64(64*w-d)/m+p.slack[w] < need {
			d--
		}
		p.maxDist[w-1] = d
	}
	return p
}

// Survives reports whether the candidate survives incremental pruning.
func (p *Pruner) Survives(a, b []uint64) bool {
	d := 0
	for w, most := range p.maxDist {
		d += bits.OnesCount64(a[w] ^ b[w])
		if d > most {
			return false
		}
	}
	return true
}
