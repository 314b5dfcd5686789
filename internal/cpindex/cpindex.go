// Package cpindex implements the Chosen Path similarity search index of
// Christiani and Pagh (STOC 2017) — reference [5] of the CPSJoin paper
// and the data structure the join algorithm is derived from.
//
// The index answers approximate similarity search: given a query set q, it
// returns every indexed set y with J(q, y) >= λ that the trees reach, each
// reached with probability at least ϕ (Index.QueryAll), or the best of them
// — the highest similarity, ties to the lower id (Index.Query, which is
// QueryAll reduced by Top). STOC'17 promises only some such y; reducing the
// whole answer gives "best match" one meaning at every threshold. It
// materializes the same random splitting trees that CPSJoin traverses on
// the fly (Section IV-B of the paper discusses the trade-off: the index
// stores the trees and supports online queries at the cost of O(n^(1+ρ))
// space, while CPSJoin streams them in near-linear space). Having both
// makes the relationship concrete and testable.
package cpindex

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/chosenpath"
	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/minhash"
	"repro/internal/tabhash"
)

// Options configures index construction.
type Options struct {
	// T is the MinHash signature length (default 128).
	T int
	// LeafSize stops splitting when a node is at most this large
	// (default 32).
	LeafSize int
	// MaxDepth caps tree depth (default ⌈ln(n+1)/ln(1/λ)⌉ + 4, the classic
	// worst-case parameterization).
	MaxDepth int
	// Trees is the number of independent trees (repetitions). A tree finds
	// a given neighbor only with the success probability of its branching
	// process (a node that samples no position dies, see treeBuilder.add);
	// repetition is what turns that into recall. The default 10 gives at
	// least 0.99 at J = λ and more above it on collections that reach
	// their leaves within three levels; add has the derivation.
	Trees int
	// Seed makes construction reproducible.
	Seed uint64
	// Workers is the worker count of the parallel execution layer used
	// during Build: 0 runs sequentially, negative selects GOMAXPROCS.
	// Signatures are computed in chunked tasks and each tree is built by
	// an independent task (trees are seeded by their index, so the built
	// structure is identical for any worker count). Queries are
	// unaffected: a built Index is read-only and safe for concurrent use.
	Workers int
}

func (o *Options) withDefaults() Options {
	opt := Options{}
	if o != nil {
		opt = *o
	}
	if opt.T <= 0 {
		opt.T = 128
	}
	if opt.LeafSize <= 0 {
		opt.LeafSize = 32
	}
	if opt.Trees <= 0 {
		opt.Trees = 10
	}
	return opt
}

// QueryStats is one query's candidate-pipeline breakdown — the same
// quantities the paper's evaluation measures per repetition. The trees are
// the only filter: Candidates is what the walks let through (a few percent
// of the collection at λ = 0.5, not all of it — dead nodes hold nothing),
// and every candidate is then verified exactly (there is no sketch filter
// on the query path; JaccardAtLeast early-exits instead), so Verified
// always equals Candidates and Rejected counts the verifications that fell
// below lambda.
type QueryStats struct {
	// Candidates is the number of distinct ids in the leaves the tree
	// walks reached (each id counted once per query).
	Candidates uint64 `json:"candidates"`
	// Verified is the number of exact Jaccard verifications run.
	Verified uint64 `json:"verified"`
	// Rejected is the number of verifications below the threshold.
	Rejected uint64 `json:"rejected"`
}

func (s *QueryStats) add(o QueryStats) {
	s.Candidates += o.Candidates
	s.Verified += o.Verified
	s.Rejected += o.Rejected
}

// QueryCounters aggregates QueryStats across queries (and, when shared,
// across the indexes of a sharded ring): three atomic counters, safe for
// concurrent queries. A sharded index attaches one QueryCounters to every
// shard it builds, loads or compacts, so the totals stay monotone across
// ring changes.
type QueryCounters struct {
	Candidates atomic.Uint64
	Verified   atomic.Uint64
	Rejected   atomic.Uint64
}

// Match is one QueryAll result: the id of an indexed set and its exact
// Jaccard similarity to the query (already computed during verification,
// so callers never need to recompute it).
type Match struct {
	ID  int     `json:"id"`
	Sim float64 `json:"sim"`
}

// kernel is the one query engine behind both views of an index: it owns
// signing, the iterative trie walk, the one candidate-verify loop, the
// pooled scratch and the counter flush. Index and Mapped differ only in
// when a container was validated — before the view exists, or at its first
// query — and wherever the token array behind sets lies, the heap or a
// snapshot container left in place, the answers, QueryStats and verification
// cost are identical by construction.
type kernel struct {
	lambda float64
	opt    Options
	nsets  int
	signer *minhash.Signer
	trie   *trie
	sets   [][]uint32

	// scratch pools queryScratch instances; see getScratch.
	scratch sync.Pool
	// counters is the optional cross-query stats sink (nil when detached).
	counters *QueryCounters
}

// Len returns the number of indexed sets.
func (k *kernel) Len() int { return k.nsets }

// Options returns the options the index was built with (Workers reflects
// build-time parallelism only; it has no effect on a built index).
func (k *kernel) Options() Options { return k.opt }

// Lambda returns the similarity threshold the index was built for.
func (k *kernel) Lambda() float64 { return k.lambda }

// SetCounters attaches (or, with nil, detaches) the cross-query stats
// sink. Attach before serving: the pointer is read on every query without
// synchronization. The per-query cost is three atomic adds at query end —
// the hot path stays allocation-free.
func (k *kernel) SetCounters(c *QueryCounters) { k.counters = c }

// all appends to dst every distinct match reachable through the trees, in
// tree-traversal order, walking with sc — a fresh getScratch the caller puts
// back — and leaves the query's stats in sc.stats. It is the kernel's one
// walk-and-verify loop: a best-match query is this answer reduced by Top.
func (k *kernel) all(sc *queryScratch, dst []Match, q []uint32) []Match {
	if len(q) == 0 {
		return dst
	}
	k.signer.SignInto(q, sc.qsig)
	for _, root := range k.trie.roots {
		k.trie.collect(root, sc)
		for _, id := range sc.cands {
			sc.stats.Verified++
			if sim, ok := intset.JaccardAtLeast(q, k.sets[id], k.lambda); ok {
				dst = append(dst, Match{ID: int(id), Sim: sim})
			} else {
				sc.stats.Rejected++
			}
		}
	}
	k.flush(sc)
	return dst
}

// Top reduces a match list, in any order, to its best match: the highest
// score, ties to the lower id. ok is false, and best.ID -1, for an empty
// list. It is the one place the best-match order is defined: Index.Query and
// a sharded best-match search both reduce an all-matches answer with it.
func Top(ms []Match) (best Match, ok bool) {
	best.ID = -1
	for _, m := range ms {
		if !ok || m.Sim > best.Sim || (m.Sim == best.Sim && m.ID < best.ID) {
			best, ok = m, true
		}
	}
	return best, ok
}

// flush publishes one finished query's stats to the attached counters.
func (k *kernel) flush(sc *queryScratch) {
	if c := k.counters; c != nil {
		c.Candidates.Add(sc.stats.Candidates)
		c.Verified.Add(sc.stats.Verified)
		c.Rejected.Add(sc.stats.Rejected)
	}
}

// queryScratch is the per-query working memory: the signature buffer, the
// epoch-stamped visited array, the traversal stack, the candidate and match
// buffers and this query's stats. Instances are pooled per kernel, so
// steady-state queries allocate nothing — riding the pooled scratch is also
// what keeps instrumentation off the allocation path.
type queryScratch struct {
	qsig    []uint32 // query signature, len T
	visited []uint32 // visited[id] == epoch ⇔ id already scanned this query
	epoch   uint32
	stack   []int32  // trie traversal stack
	cands   []uint32 // the current tree's new candidate ids, in visit order
	matches []Match  // Index.Query's all-matches answer, reduced by Top
	stats   QueryStats
}

// getScratch returns a pooled scratch sized for this index with a fresh
// epoch. On epoch wraparound the visited array is cleared, so stale stamps
// from 2^32 queries ago can never alias.
func (k *kernel) getScratch() *queryScratch {
	sc, _ := k.scratch.Get().(*queryScratch)
	if sc == nil {
		sc = new(queryScratch)
	}
	if len(sc.qsig) != k.opt.T {
		sc.qsig = make([]uint32, k.opt.T)
	}
	if len(sc.visited) < k.nsets {
		sc.visited = make([]uint32, k.nsets)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	sc.stats = QueryStats{}
	return sc
}

// Index is a built or validated Chosen Path search structure: the view of the
// kernel whose queries cannot fail. Build and Mapped.Index put its trie and
// collection on the heap; Mapped.InPlace leaves them in their container.
type Index struct {
	*kernel

	// Stats describe the built structure. Leaves counts every leaf node:
	// those that hold ids (at most LeafSize of them, or a MaxDepth cut-off)
	// and the empty ones that mark a dead node.
	Nodes  int
	Leaves int
}

// Build constructs the index for similarity threshold lambda. With
// Options.Workers set, signature computation and the independent trees
// are built concurrently on the shared execution layer; the resulting
// structure is identical to a sequential build.
func Build(sets [][]uint32, lambda float64, o *Options) *Index {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("cpindex: lambda %v out of (0,1)", lambda))
	}
	opt := o.withDefaults()
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = int(math.Ceil(math.Log(float64(len(sets)+1))/math.Log(1/lambda))) + 4
	}
	workers := exec.EffectiveWorkers(opt.Workers)
	k := &kernel{
		lambda: lambda,
		opt:    opt,
		nsets:  len(sets),
		signer: minhash.NewSigner(opt.T, opt.Seed),
		sets:   sets,
	}
	sigs := signAll(k.signer, sets, workers)

	// Each tree is built into arrays of its own (trees are seeded by their
	// index, so the structure is the same for any worker count), then the
	// trees are concatenated in order.
	all := make([]uint32, len(sets))
	for i := range all {
		all[i] = uint32(i)
	}
	builders := make([]treeBuilder, opt.Trees)
	exec.RunItems(workers, opt.Trees, func(tr int) {
		b := &builders[tr]
		*b = treeBuilder{opt: opt, splitter: chosenpath.New(sigs, opt.T, lambda)}
		b.add(all, 0, tabhash.Mix64(opt.Seed+uint64(tr)*0xc9f1))
		*b = treeBuilder{trie: b.trie, leaves: b.leaves} // the tree is built: let its scratch go
	})
	k.trie = new(trie)
	ix := &Index{kernel: k}
	var nodes, leafIDs, pos, buckets int
	for i := range builders {
		o := &builders[i].trie
		nodes += len(o.nodes)
		leafIDs += len(o.leafIDs)
		pos += len(o.pos)
		buckets += len(o.buckets)
	}
	*k.trie = trie{ // exact capacities: appendTree then copies each array once
		roots:   make([]int32, 0, opt.Trees),
		nodes:   make([]trieNode, 0, nodes),
		leafIDs: make([]uint32, 0, leafIDs),
		pos:     make([]triePos, 0, pos),
		buckets: make([]trieBucket, 0, buckets),
	}
	for i := range builders {
		k.trie.appendTree(&builders[i].trie)
		ix.Leaves += builders[i].leaves
		builders[i].trie = trie{} // copied; let the per-tree arrays go
	}
	ix.Nodes = len(k.trie.nodes)
	return ix
}

// signAll computes the position-major signature matrix (the layout
// internal/prep builds and internal/chosenpath reads), chunked across
// workers.
func signAll(signer *minhash.Signer, sets [][]uint32, workers int) []uint32 {
	const chunk = 256
	sigs := make([]uint32, len(sets)*signer.T())
	exec.RunChunks(workers, len(sets), chunk, func(c *exec.Ctx, lo, hi int) {
		signer.SignColumns(sets, lo, hi, sigs)
	})
	return sigs
}

// Sets returns the indexed collection (not a copy: for an InPlace view, the
// headers over its container).
func (ix *Index) Sets() [][]uint32 { return ix.sets }

// Query returns the best indexed set the search finds: the one with the
// highest J(q, result) >= lambda, ties to the lower id — QueryAll reduced by
// Top, so it finds a match exactly when QueryAll does. It returns the id, its
// exact similarity, and whether one was found. The query set must be
// normalized. One tree reaches a given neighbor at similarity s with the
// survival probability of a branching process of mean s/λ
// (treeBuilder.add derives it: 0.38 to 0.47 at s = λ, over 0.8 at s = 2λ), so
// a miss — ok = false despite a neighbor existing — needs every one of the
// Trees repetitions to fail: under 1 % at s = λ with the default 10, under
// 0.1 % from s = 1.1λ up, measured in TestRecallByBand.
func (ix *Index) Query(q []uint32) (int, float64, bool) {
	id, sim, ok, _ := ix.QueryWithStats(q)
	return id, sim, ok
}

// QueryWithStats is Query plus this call's candidate-pipeline breakdown —
// the per-query numbers debug traces and the slow-query log report, the
// same as AppendAllWithStats's for q. The stats are also flushed to the
// attached QueryCounters; the all-matches answer lies in the pooled scratch,
// so the hot path stays allocation-free.
func (ix *Index) QueryWithStats(q []uint32) (int, float64, bool, QueryStats) {
	sc := ix.getScratch()
	defer ix.scratch.Put(sc)
	sc.matches = ix.all(sc, sc.matches[:0], q)
	best, ok := Top(sc.matches)
	return best.ID, best.Sim, ok, sc.stats
}

// QueryAll returns every distinct indexed set with J(q, y) >= lambda
// reachable through the trees, each with its exact similarity; each
// neighbor is reached or missed independently, with the probabilities
// given at Query. Matches are returned in tree-traversal order; sort by ID
// for a canonical order.
func (ix *Index) QueryAll(q []uint32) []Match {
	return ix.AppendAll(nil, q)
}

// AppendAll is QueryAll with caller-owned result storage: matches are
// appended to dst (which may be reused across queries for allocation-free
// steady state) and the grown slice is returned. Match order is identical
// to QueryAll's.
func (ix *Index) AppendAll(dst []Match, q []uint32) []Match {
	dst, _ = ix.AppendAllWithStats(dst, q)
	return dst
}

// AppendAllWithStats is AppendAll plus this call's candidate-pipeline
// breakdown, flushed to the attached QueryCounters like QueryWithStats.
func (ix *Index) AppendAllWithStats(dst []Match, q []uint32) ([]Match, QueryStats) {
	sc := ix.getScratch()
	defer ix.scratch.Put(sc)
	dst = ix.all(sc, dst, q)
	return dst, sc.stats
}
