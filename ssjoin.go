// Package ssjoin provides scalable and robust set similarity joins.
//
// It is a Go reproduction of "Scalable and Robust Set Similarity Join"
// (Christiani, Pagh, Sivertsen — ICDE 2018). The headline algorithm is
// CPSJoin, a randomized (λ, ϕ)-similarity join: every pair of sets with
// Jaccard similarity at least λ is reported with probability at least ϕ,
// and nothing below λ is ever reported (100% precision). On data without
// rare tokens, CPSJoin outperforms exact prefix-filtering joins by one to
// three orders of magnitude at 90% recall.
//
// The package also ships the paper's comparators — the exact ALLPAIRS and
// PPJoin algorithms, a MinHash LSH join, and a BayesLSH-lite join — plus
// dataset IO, synthetic workload generators, and the LSH embedding that
// extends the join to any LSHable similarity measure.
//
// Sets are represented as strictly increasing []uint32 token lists; use
// NormalizeSet to build them from arbitrary token slices.
package ssjoin

import (
	"fmt"

	"repro/internal/allpairs"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/lshjoin"
	"repro/internal/stats"
	"repro/internal/verify"
)

// Pair is one join result: indices of two similar sets in the input
// collection, with A < B for self-joins. For R-S joins, A indexes R and B
// indexes S.
type Pair struct {
	A, B int
}

// Stats reports candidate-generation statistics of a join run, in the
// terms of Table IV of the paper.
type Stats struct {
	// PreCandidates is the number of pairs the algorithm examined.
	PreCandidates int64
	// Candidates is the number of pairs that reached exact verification.
	Candidates int64
	// Results is the number of reported pairs.
	Results int64
	// Repetitions is how many repetitions an approximate join ran:
	// CPSJoin's Repetitions, MinHashJoin's and BayesLSHJoin's L (derived
	// from TargetRecall). It is 0 for the exact joins.
	Repetitions int64
}

// Options tunes the approximate join algorithms. The zero value reproduces
// the paper's final parameter settings (Table III) except for CPSJoin's
// recall budget: 6 repetitions at Delta 0.01 in place of Table III's 10 at
// 0.05, a modelled recall at λ no lower in 60 % of the recursion. Set
// Repetitions 10 and Delta 0.05 to run Table III's.
type Options struct {
	// Seed makes runs reproducible. Two runs with the same seed, input and
	// options return identical results — including across different
	// Workers values.
	Seed uint64
	// Repetitions is the number of independent CPSJoin runs (default 6;
	// Table III's is 10).
	Repetitions int
	// TargetRecall is the per-pair recall ϕ for MinHashJoin and
	// BayesLSHJoin repetition counts (default 0.9 and 0.95 respectively):
	// the probability that a pair at similarity λ meets in some bucket.
	// With the sketch filter on, MinHashJoin reports a pair near λ with
	// probability about TargetRecall·(1 − Delta), because a pair's sketches
	// do not change between repetitions; pairs well above λ keep
	// TargetRecall. CPSJoin does not read it: its recall comes from
	// Repetitions and has the same ceiling, 1 − Delta.
	TargetRecall float64
	// T is the MinHash signature length (default 128).
	T int
	// Limit is CPSJoin's brute-force size threshold (default 250).
	Limit int
	// Epsilon is CPSJoin's brute-force aggressiveness (default 0.1). Set
	// EpsilonSet to use a zero Epsilon.
	Epsilon    float64
	EpsilonSet bool
	// SketchWords is the 1-bit minwise sketch width in 64-bit words
	// (default 8). A negative value disables sketch filtering — uniformly,
	// for every algorithm: CPSJoin and MinHashJoin skip the sketch
	// pre-filter, and BayesLSHJoin skips its incremental sketch pruning
	// (candidates go straight from the size filter to exact
	// verification).
	SketchWords int
	// Delta is the sketch false-negative probability (default 0.01 for
	// CPSJoin, 0.05 — Table III's — for MinHashJoin; BayesLSHJoin's
	// sequential test has a budget of its own, 0.05).
	Delta float64
	// K fixes the number of concatenated hashes for MinHashJoin
	// (0 = choose automatically by cost estimation).
	K int
	// Workers is the number of worker goroutines of the parallel
	// execution layer shared by every join algorithm and by index
	// construction: 0 (the default) runs sequentially, negative selects
	// runtime.GOMAXPROCS(0), positive is taken as given. For a fixed Seed
	// the result set is identical across worker counts; only the
	// candidate Stats can drift by the few pairs that concurrent workers
	// examine twice.
	Workers int
}

func (o *Options) cps() *core.Options {
	if o == nil {
		return nil
	}
	return &core.Options{
		T:           o.T,
		Limit:       o.Limit,
		Epsilon:     o.Epsilon,
		EpsilonSet:  o.EpsilonSet,
		SketchWords: o.SketchWords,
		Delta:       o.Delta,
		Repetitions: o.Repetitions,
		Seed:        o.Seed,
		Workers:     o.Workers,
	}
}

func (o *Options) lsh() *lshjoin.Options {
	if o == nil {
		return nil
	}
	return &lshjoin.Options{
		K:            o.K,
		TargetRecall: o.TargetRecall,
		T:            o.T,
		SketchWords:  o.SketchWords,
		Delta:        o.Delta,
		Seed:         o.Seed,
		Workers:      o.Workers,
	}
}

// workers extracts the Workers knob for the exact algorithms, which take
// no other options.
func (o *Options) workers() int {
	if o == nil {
		return 0
	}
	return o.Workers
}

func fromPairs(in []verify.Pair) []Pair {
	if len(in) == 0 {
		return nil
	}
	out := make([]Pair, len(in))
	for i, p := range in {
		out[i] = Pair{A: int(p.A), B: int(p.B)}
	}
	return out
}

func toPairs(in []Pair) []verify.Pair {
	out := make([]verify.Pair, len(in))
	for i, p := range in {
		out[i] = verify.MakePair(uint32(p.A), uint32(p.B))
	}
	return out
}

func fromCounters(c verify.Counters) Stats {
	return Stats{PreCandidates: c.PreCandidates, Candidates: c.Candidates, Results: c.Results, Repetitions: c.Repetitions}
}

// CPSJoin computes an approximate self-join at Jaccard threshold lambda
// using the Chosen Path Similarity Join. With default options (6
// repetitions at δ = 0.01) a pair at similarity λ is reported with
// modelled probability 0.965, against 0.948 at Table III's 10 repetitions
// and δ = 0.05; precision is always 100%.
func CPSJoin(sets [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := core.Join(sets, lambda, opts.cps())
	return fromPairs(pairs), fromCounters(c)
}

// CPSJoinRS computes an approximate R-S join: pairs (i, j) with
// J(r[i], s[j]) >= lambda, where Pair.A indexes r and Pair.B indexes s.
func CPSJoinRS(r, s [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := core.JoinRS(r, s, lambda, opts.cps())
	return fromPairs(pairs), fromCounters(c)
}

// AllPairs computes the exact self-join with the ALLPAIRS prefix-filtering
// algorithm (Bayardo et al.), the paper's exact baseline. Exact algorithms
// consult only Workers from opts (nil runs sequentially); results are
// identical for any worker count.
func AllPairs(sets [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := allpairs.JoinWorkers(sets, lambda, opts.workers())
	return fromPairs(pairs), fromCounters(c)
}

// AllPairsRS computes the exact R-S join with prefix filtering: pairs
// (i, j) with J(r[i], s[j]) >= lambda, where Pair.A indexes r and Pair.B
// indexes s. Exact algorithms consult only Workers from opts.
func AllPairsRS(r, s [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := allpairs.JoinRSWorkers(r, s, lambda, opts.workers())
	return fromPairs(pairs), fromCounters(c)
}

// PPJoin computes the exact self-join with positional filtering (Xiao et
// al.), a second member of the prefix-filter family. Exact algorithms
// consult only Workers from opts.
func PPJoin(sets [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := allpairs.PPJoinWorkers(sets, lambda, opts.workers())
	return fromPairs(pairs), fromCounters(c)
}

// MinHashJoin computes an approximate self-join with classic MinHash LSH
// (Algorithm 3 of the paper), auto-selecting the bucket width k.
func MinHashJoin(sets [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := lshjoin.Join(sets, lambda, opts.lsh())
	return fromPairs(pairs), fromCounters(c)
}

// BayesLSHJoin computes an approximate self-join in the style of
// BayesLSH-lite: single-hash LSH candidate generation with incremental
// sketch pruning before exact verification.
func BayesLSHJoin(sets [][]uint32, lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := lshjoin.BayesJoin(sets, lambda, opts.lsh())
	return fromPairs(pairs), fromCounters(c)
}

// BruteForce computes the exact self-join by verifying all O(n²) pairs.
// It is the ground truth for recall measurements.
func BruteForce(sets [][]uint32, lambda float64) []Pair {
	return fromPairs(verify.BruteForceJoin(sets, lambda))
}

// Algorithm names a join implementation for the generic Join dispatcher.
type Algorithm string

// The available join algorithms.
const (
	AlgCPSJoin    Algorithm = "cpsjoin"
	AlgAllPairs   Algorithm = "allpairs"
	AlgPPJoin     Algorithm = "ppjoin"
	AlgMinHash    Algorithm = "minhash"
	AlgBayesLSH   Algorithm = "bayeslsh"
	AlgBruteForce Algorithm = "bruteforce"
)

// Algorithms lists every algorithm accepted by Join.
func Algorithms() []Algorithm {
	return []Algorithm{AlgCPSJoin, AlgAllPairs, AlgPPJoin, AlgMinHash, AlgBayesLSH, AlgBruteForce}
}

// Join dispatches to the named algorithm. Exact algorithms consult only
// opts.Workers.
func Join(sets [][]uint32, lambda float64, alg Algorithm, opts *Options) ([]Pair, Stats, error) {
	switch alg {
	case AlgCPSJoin:
		p, s := CPSJoin(sets, lambda, opts)
		return p, s, nil
	case AlgAllPairs:
		p, s := AllPairs(sets, lambda, opts)
		return p, s, nil
	case AlgPPJoin:
		p, s := PPJoin(sets, lambda, opts)
		return p, s, nil
	case AlgMinHash:
		p, s := MinHashJoin(sets, lambda, opts)
		return p, s, nil
	case AlgBayesLSH:
		p, s := BayesLSHJoin(sets, lambda, opts)
		return p, s, nil
	case AlgBruteForce:
		p := BruteForce(sets, lambda)
		return p, Stats{Results: int64(len(p))}, nil
	default:
		return nil, Stats{}, fmt.Errorf("ssjoin: unknown algorithm %q", alg)
	}
}

// Jaccard returns the Jaccard similarity |a∩b|/|a∪b| of two normalized
// sets.
func Jaccard(a, b []uint32) float64 {
	return intset.Jaccard(a, b)
}

// NormalizeSet sorts s and removes duplicate tokens in place, returning a
// valid set representation.
func NormalizeSet(s []uint32) []uint32 {
	return intset.Normalize(s)
}

// Recall returns the fraction of truth pairs present in got.
func Recall(got, truth []Pair) float64 {
	return stats.Recall(toPairs(got), toPairs(truth))
}

// Precision returns the fraction of got pairs present in truth.
func Precision(got, truth []Pair) float64 {
	return stats.Precision(toPairs(got), toPairs(truth))
}
