package ssjoin

import (
	"repro/internal/cpindex"
	"repro/internal/exec"
)

// Match is one search result: the id of an indexed set and its exact score
// against the query — Jaccard similarity, or containment for containment
// queries.
type Match = cpindex.Match

// SearchIndex answers approximate similarity search queries: given a query
// set, find indexed sets with Jaccard similarity at least λ. It is the
// Chosen Path index of Christiani and Pagh (STOC 2017), the structure
// CPSJoin is derived from; use it when queries arrive online instead of as
// a second joinable collection.
type SearchIndex struct {
	ix *cpindex.Index
	// workers is the construction-time Workers option, reused as the
	// default parallelism of QueryBatch.
	workers int
}

// SearchOptions configures SearchIndex construction. The tree shape is
// fixed: nodes of at most 32 sets are leaves, and signatures have length
// 128.
type SearchOptions struct {
	// Trees is the number of independent search trees (default 10). One
	// tree finds a neighbor at similarity J only with the survival
	// probability of its branching process — a node that samples no
	// signature position is dead and holds no sets — and the repetitions
	// multiply the misses away: at λ = 0.5 the default measures ≥ 0.995
	// recall at J = λ and 1.000 from J = 0.55 up on 10 000 sets. Thresholds
	// near 1 and collections dense in near-threshold pairs need more.
	Trees int
	// Seed makes construction reproducible.
	Seed uint64
	// Workers parallelizes construction on the shared execution layer:
	// 0 builds sequentially, negative selects GOMAXPROCS. The built
	// structure is identical for any worker count, and queries against a
	// built index are always safe to run concurrently.
	Workers int
}

// NewSearchIndex builds a search index over the collection for similarity
// threshold lambda. The collection is referenced, not copied.
func NewSearchIndex(sets [][]uint32, lambda float64, opts *SearchOptions) *SearchIndex {
	var o *cpindex.Options
	workers := 0
	if opts != nil {
		o = &cpindex.Options{Trees: opts.Trees, Seed: opts.Seed, Workers: opts.Workers}
		workers = opts.Workers
	}
	return &SearchIndex{ix: cpindex.Build(sets, lambda, o), workers: workers}
}

// Query returns the best match the search finds — the id of the indexed set
// with the highest J(q, result) >= λ, ties to the lower id, and its exact
// similarity — or ok = false when it finds none. It is QueryAll reduced to
// its top match, so it finds a match exactly when QueryAll does. A true
// neighbor is missed only when every tree fails to reach it, the residual
// probability of the (λ, ϕ) guarantee (see SearchOptions.Trees).
func (s *SearchIndex) Query(q []uint32) (id int, sim float64, ok bool) {
	return s.ix.Query(q)
}

// QueryAll returns all indexed sets with J(q, y) >= λ that the search
// reaches — a few percent of the collection are verified, not all of it;
// recall as under SearchOptions.Trees; exact-verified, so no false
// positives — each with its exact similarity, already computed during
// verification, so callers never pay for it twice.
func (s *SearchIndex) QueryAll(q []uint32) []Match {
	return s.ix.QueryAll(q)
}

// QueryBatch answers many queries at once, fanning them out as tasks on
// the shared execution layer over the read-only index; results[i] is
// QueryAll(qs[i]). Parallelism follows the construction-time Workers
// option, and output is identical for any worker count.
func (s *SearchIndex) QueryBatch(qs [][]uint32) [][]Match {
	out := make([][]Match, len(qs))
	exec.RunItems(exec.EffectiveWorkers(s.workers), len(qs), func(i int) {
		out[i] = s.QueryAll(qs[i])
	})
	return out
}

// Save writes the built index (trees, hash seeds, options, and the
// collection it points into) to path as one versioned, checksummed
// snapshot file, atomically. A LoadSearchIndex of that file answers
// queries identically to this index, for the cost of reading the bytes
// instead of rebuilding.
func (s *SearchIndex) Save(path string) error {
	return s.ix.Save(path)
}

// LoadSearchIndex reopens an index written by Save. workers sets the
// QueryBatch parallelism of the loaded index (0 = sequential, negative =
// GOMAXPROCS); it does not affect results. Corrupt, truncated or
// wrong-version files yield descriptive errors, never a panic.
func LoadSearchIndex(path string, workers int) (*SearchIndex, error) {
	ix, err := cpindex.Load(path)
	if err != nil {
		return nil, err
	}
	return &SearchIndex{ix: ix, workers: workers}, nil
}
