package ssjoin

import (
	"repro/internal/bayeslsh"
	"repro/internal/core"
	"repro/internal/lshjoin"
	"repro/internal/prep"
)

// Index is the preprocessed form of a collection: MinHash signatures and
// 1-bit minwise sketches. Building it costs one pass of hashing per set;
// afterwards, approximate joins at any threshold reuse it, which is how
// the paper measures join time ("the preprocessing step ... only has to
// be performed once for each set and similarity measure").
//
// An Index is safe for concurrent joins: joins only read it.
type Index struct {
	ix *prep.Index
}

// NewIndex preprocesses a collection with the embedding parameters from
// opts (signature length T, sketch width SketchWords, Seed). With
// opts.Workers set, the per-set hashing runs on the parallel execution
// layer; the built index is identical for any worker count. The
// collection is referenced, not copied; do not mutate it while the index
// is in use.
func NewIndex(sets [][]uint32, opts *Options) *Index {
	return &Index{ix: core.Preprocess(sets, opts.cps())}
}

// Sets returns the underlying collection.
func (ix *Index) Sets() [][]uint32 { return ix.ix.Sets }

// Save persists the index (collection, signatures and sketches) to a file
// in a checksummed binary format, so the preprocessing pass can be reused
// across processes and joins.
func (ix *Index) Save(path string) error {
	return ix.ix.Save(path)
}

// LoadIndex reads an index written by Save. The loaded index is
// self-contained: it carries the collection, so joins can run immediately.
// The file is validated in full and then used where it is mapped, for as
// long as the Index is reachable; Sets returns heap copies that outlive it.
func LoadIndex(path string) (*Index, error) {
	p, err := prep.Load(path)
	if err != nil {
		return nil, err
	}
	return &Index{ix: p}, nil
}

// CPSJoin runs CPSJoin against the index at the given threshold. T and
// SketchWords in opts are ignored (the index fixes them); opts.Workers
// selects the parallelism of the join itself.
func (ix *Index) CPSJoin(lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := core.JoinIndexed(ix.ix, lambda, opts.cps())
	return fromPairs(pairs), fromCounters(c)
}

// MinHashJoin runs the MinHash LSH join against the index.
func (ix *Index) MinHashJoin(lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := lshjoin.JoinIndexed(ix.ix, lambda, opts.lsh())
	return fromPairs(pairs), fromCounters(c)
}

// BayesLSHJoin runs the BayesLSH-lite join against the index.
func (ix *Index) BayesLSHJoin(lambda float64, opts *Options) ([]Pair, Stats) {
	pairs, c := bayeslsh.JoinIndexed(ix.ix, lambda, opts.bayes())
	return fromPairs(pairs), fromCounters(c)
}
