// Package allpairs implements the ALLPAIRS exact set similarity join of
// Bayardo, Ma and Srikant (WWW 2007) for Jaccard thresholds, in the
// optimized formulation of Mann, Augsten and Bouros (VLDB 2016) whose
// implementation the CPSJoin paper uses as the representative
// state-of-the-art exact baseline ("ALL").
//
// The algorithm processes sets in order of increasing size, keeping an
// inverted index over the *prefix* of each processed set. Tokens within a
// set are ordered by increasing global frequency, so prefixes consist of
// the rarest tokens and inverted lists stay short — this is exactly the
// structural assumption ("many rare tokens") whose absence CPSJoin is
// robust to.
//
// There is one probe loop, run at every worker count: the prefix index is
// materialized first, then every set probes it — on the execution layer of
// internal/exec, in chunks — for the postings of strictly smaller ids, which
// are exactly what an index grown while probing would have held when the
// set's turn came. Pairs and all three counters are therefore a function of
// the input alone (TestGoldenExactJoins pins them to what the interleaved
// loop of Mann et al. counted).
package allpairs

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/verify"
)

// probePrefix returns the probing prefix length for a set of the given
// size: tokens outside the prefix cannot be the sole witness of a match
// with any candidate of size >= lambda*size.
func probePrefix(size int, lambda float64) int {
	// Minimum overlap with any join partner is ceil(lambda * size)
	// (achieved when the partner has size lambda*size).
	minOverlap := int(math.Ceil(lambda * float64(size)))
	if minOverlap < 1 {
		minOverlap = 1
	}
	return size - minOverlap + 1
}

// indexPrefix returns the indexing prefix length: only this many tokens
// need to enter the inverted index, because any future probe set is at
// least as large, so the equivalent-overlap bound is at least
// ceil(2*lambda/(1+lambda) * size).
func indexPrefix(size int, lambda float64) int {
	minOverlap := int(math.Ceil(2 * lambda / (1 + lambda) * float64(size)))
	if minOverlap < 1 {
		minOverlap = 1
	}
	return size - minOverlap + 1
}

// Join computes the exact self-join {(i, j) : J(sets[i], sets[j]) >= lambda}
// and returns the pairs (in original indices) together with candidate
// statistics. The input sets must be normalized (sorted, unique); they are
// not modified.
func Join(sets [][]uint32, lambda float64) ([]verify.Pair, verify.Counters) {
	return JoinWorkers(sets, lambda, 1)
}

// JoinWorkers is Join executed with the given worker count on the shared
// execution layer (0 = one worker, negative = GOMAXPROCS). Postings are
// appended in id order, and ids are size order, so each probe
// binary-searches its minsize lower bound and stops at the first posting
// with id >= its own. Pairs and counters are identical for any worker
// count.
func JoinWorkers(sets [][]uint32, lambda float64, workers int) ([]verify.Pair, verify.Counters) {
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	workers = exec.EffectiveWorkers(workers)
	// Work on a frequency-remapped, size-sorted copy.
	ds := (&dataset.Dataset{Sets: sets}).Clone()
	ds.RemapByFrequency()
	perm := ds.SortBySize()
	sorted := ds.Sets
	n := len(sorted)

	index := make(map[uint32][]uint32)
	for xi, x := range sorted {
		for _, tok := range x[:indexPrefix(len(x), lambda)] {
			index[tok] = append(index[tok], uint32(xi))
		}
	}

	// Per-worker scratch: the overlap accumulator is O(n) per worker, so
	// memory scales with the worker count, not the probe count.
	type scratch struct {
		overlap []int32
		touched []uint32
		pairs   []verify.Pair
		c       verify.Counters
	}
	scr := make([]*scratch, workers)
	for i := range scr {
		scr[i] = &scratch{overlap: make([]int32, n), touched: make([]uint32, 0, 1024)}
	}

	probe := func(w *scratch, xi int) {
		x := sorted[xi]
		sx := len(x)
		minsize := int(math.Ceil(lambda * float64(sx)))
		touched := w.touched[:0]
		for _, tok := range x[:probePrefix(sx, lambda)] {
			list := index[tok]
			start := sort.Search(len(list), func(i int) bool {
				return len(sorted[list[i]]) >= minsize
			})
			for _, yi := range list[start:] {
				if int(yi) >= xi {
					break
				}
				w.c.PreCandidates++
				if w.overlap[yi] == 0 {
					touched = append(touched, yi)
				}
				w.overlap[yi]++
			}
		}
		// Verify unique candidates.
		for _, yi := range touched {
			w.overlap[yi] = 0
			w.c.Candidates++
			y := sorted[yi]
			required := intset.JaccardOverlapBound(sx, len(y), lambda)
			if _, ok := intset.IntersectSizeAtLeast(x, y, required); ok {
				w.c.Results++
				w.pairs = append(w.pairs, verify.MakePair(uint32(perm[xi]), uint32(perm[yi])))
			}
		}
		w.touched = touched[:0]
	}

	// Default chunking is small enough that stealing balances the skew
	// from size-sorted probes (late ids are the largest sets and the most
	// expensive).
	exec.RunChunks(workers, n, 0, func(c *exec.Ctx, lo, hi int) {
		w := scr[c.Worker()]
		for xi := lo; xi < hi; xi++ {
			probe(w, xi)
		}
	})

	var pairs []verify.Pair
	var counters verify.Counters
	for _, w := range scr {
		pairs = append(pairs, w.pairs...)
		counters.Add(w.c)
	}
	return pairs, counters
}
