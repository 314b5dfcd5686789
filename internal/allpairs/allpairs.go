// Package allpairs implements the exact prefix-filter family of set
// similarity joins for Jaccard thresholds: ALLPAIRS of Bayardo, Ma and
// Srikant (WWW 2007), in the optimized formulation of Mann, Augsten and
// Bouros (VLDB 2016) whose implementation the CPSJoin paper uses as the
// representative state-of-the-art exact baseline ("ALL"), its R-S form, and
// PPJoin of Xiao et al. (TODS 2011): ALLPAIRS plus a positional filter.
//
// Tokens within a set are ordered by increasing global frequency
// (dataset.RemapByFrequency, over R ∪ S for the R-S join), so the *prefix*
// of a set is its rarest tokens and inverted lists over prefixes stay short
// — exactly the structural assumption ("many rare tokens") whose absence
// CPSJoin is robust to.
//
// The three joins share one frame (join): the prefix index is materialized,
// every set probes it on the execution layer of internal/exec, in chunks,
// and the sets its probe touched are verified; each join supplies only its
// probe. A self-join processes sets by increasing size and probes the
// postings of strictly smaller ids, exactly what an index grown while
// probing would have held at the set's turn, so pairs and all three
// counters are a function of the input alone (TestGoldenExactJoins and
// TestPPGoldenExactJoins pin them to the interleaved loop of Mann et al.).
//
// The joins are exact against intset.Jaccard's own division: prefix
// lengths, the minimum partner size, the size and positional filters and
// verification all come from intset's threshold rule, so a pair is
// reported exactly when Jaccard(x, y) >= λ, a pair at λ exactly included.
package allpairs

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/verify"
)

// probePrefix returns the probing prefix length for a set of the given
// size: tokens outside the prefix cannot be the sole witness of a match.
// The smallest overlap any partner needs is intset.MinShare(size, lambda),
// needed by the smallest partner the size filter lets through, nested in
// the set.
func probePrefix(size int, lambda float64) int {
	return size - max(intset.MinShare(size, lambda), 1) + 1
}

// indexPrefix returns the indexing prefix length: only this many tokens
// need to enter the inverted index, because any future probe set is at
// least as large, so the overlap it needs is at least
// intset.MinOverlap(size, size, lambda).
func indexPrefix(size int, lambda float64) int {
	return size - max(intset.MinOverlap(size, size, lambda), 1) + 1
}

// sizeOrdered returns a copy of sets in the self-joins' order: tokens
// relabelled rarest first, sets by increasing size. perm maps a position
// back to its index in sets.
func sizeOrdered(sets [][]uint32) (sorted [][]uint32, perm []int) {
	ds := (&dataset.Dataset{Sets: sets}).Clone()
	ds.RemapByFrequency()
	perm = ds.SortBySize()
	return ds.Sets, perm
}

// scratch is one worker's probe state. mark holds, per indexed set, what
// the current probe has seen of it: an overlap count, or -1 once the
// positional filter pruned it; touched lists the sets whose mark is not 0.
// need[k] is the overlap a set of size lo+k needs with the probing set,
// intset.MinOverlap, for every size of its intset.SizeWindow up to largest,
// the largest indexed size: the rule runs once per probe and size, not once
// per candidate.
type scratch struct {
	mark        []int32
	touched     []uint32
	lo, largest int
	need        []int
	pairs       []verify.Pair
	c           verify.Counters
	_           [64]byte // keeps two workers' counters off one cache line
}

// bounds sets lo and need for a probing set of size n.
func (w *scratch) bounds(n int, lambda float64) {
	lo, hi := intset.SizeWindow(n, lambda)
	w.lo, w.need = lo, w.need[:0]
	for size := lo; size <= min(hi, w.largest); size++ {
		w.need = append(w.need, intset.MinOverlap(n, size, lambda))
	}
}

// touch records a probe's first contact with indexed set yi.
func (w *scratch) touch(yi uint32) {
	if w.mark[yi] == 0 {
		w.touched = append(w.touched, yi)
	}
}

// join is the frame of every join in the package: probe(w, xi) marks the
// sets of ys that xs[xi] reaches through the index, then each touched set
// is unmarked and verified, pairs named {A: xi, B: yi}. The probes run on
// the given worker count (0 = one worker, negative = GOMAXPROCS) in chunks
// small enough that stealing balances the skew from size-sorted probes. A
// worker's scratch is O(|ys|), so memory scales with the worker count, not
// the probe count. Pairs and counters are concatenated in worker order, so
// the pairs' order depends on scheduling until the caller sorts them.
func join(xs, ys [][]uint32, lambda float64, workers int, probe func(w *scratch, xi int)) ([]verify.Pair, verify.Counters) {
	workers = exec.EffectiveWorkers(workers)
	largest := 0
	for _, y := range ys {
		largest = max(largest, len(y))
	}
	scr := make([]*scratch, workers)
	for i := range scr {
		scr[i] = &scratch{mark: make([]int32, len(ys)), touched: make([]uint32, 0, 1024), largest: largest}
	}
	exec.RunChunks(workers, len(xs), 0, func(c *exec.Ctx, lo, hi int) {
		w := scr[c.Worker()]
		for xi := lo; xi < hi; xi++ {
			w.bounds(len(xs[xi]), lambda)
			probe(w, xi)
			w.verify(uint32(xi), xs[xi], ys)
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

// verify unmarks every set the probe of x touched and verifies the ones
// not pruned whose size is in x's intset.SizeWindow: the intersection must
// reach the size's need. A self-join candidate is always in the window: its
// probe only takes postings of sizes in [lo, |x|].
func (w *scratch) verify(xi uint32, x []uint32, ys [][]uint32) {
	for _, yi := range w.touched {
		pruned := w.mark[yi] < 0
		w.mark[yi] = 0
		y := ys[yi]
		k := len(y) - w.lo
		if pruned || k < 0 || k >= len(w.need) {
			continue
		}
		w.c.Candidates++
		if _, ok := intset.IntersectSizeAtLeast(x, y, w.need[k]); ok {
			w.c.Results++
			w.pairs = append(w.pairs, verify.Pair{A: xi, B: yi})
		}
	}
	w.touched = w.touched[:0]
}

// inOriginalIDs renames self-join pairs from size-sorted positions to input
// indices and sorts them by A, then B (verify.SortPairs): the workers
// concatenate their pairs in an order that depends on how the probes were
// scheduled.
func inOriginalIDs(pairs []verify.Pair, perm []int) []verify.Pair {
	for i, p := range pairs {
		pairs[i] = verify.MakePair(uint32(perm[p.A]), uint32(perm[p.B]))
	}
	verify.SortPairs(pairs)
	return pairs
}

// Join computes the exact self-join {(i, j) : J(sets[i], sets[j]) >= lambda}
// and returns the pairs (in original indices) together with candidate
// statistics. The input sets must be normalized (sorted, unique); they are
// not modified.
func Join(sets [][]uint32, lambda float64) ([]verify.Pair, verify.Counters) {
	return JoinWorkers(sets, lambda, 1)
}

// JoinWorkers is Join executed with the given worker count on the shared
// execution layer (0 = one worker, negative = GOMAXPROCS). Postings are in
// id order, which is size order, so each probe binary-searches its minimum
// partner size (the scratch's lo) and stops at the first posting with id >=
// its own. Pairs (sorted by A, then B) and counters are identical for any
// worker count.
func JoinWorkers(sets [][]uint32, lambda float64, workers int) ([]verify.Pair, verify.Counters) {
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	sorted, perm := sizeOrdered(sets)
	index := make(map[uint32][]uint32)
	for xi, x := range sorted {
		for _, tok := range x[:indexPrefix(len(x), lambda)] {
			index[tok] = append(index[tok], uint32(xi))
		}
	}
	pairs, c := join(sorted, sorted, lambda, workers, func(w *scratch, xi int) {
		x := sorted[xi]
		for _, tok := range x[:probePrefix(len(x), lambda)] {
			list := index[tok]
			start := sort.Search(len(list), func(i int) bool {
				return len(sorted[list[i]]) >= w.lo
			})
			for _, yi := range list[start:] {
				if int(yi) >= xi {
					break
				}
				w.c.PreCandidates++
				w.touch(yi)
				w.mark[yi]++
			}
		}
	})
	return inOriginalIDs(pairs, perm), c
}
