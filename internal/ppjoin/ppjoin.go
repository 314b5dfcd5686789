// Package ppjoin implements the PPJoin exact set similarity join of Xiao,
// Wang, Lin, Yu and Wang (TODS 2011): AllPairs-style prefix filtering
// extended with a positional filter that discards candidates whose maximum
// attainable overlap — given the positions at which prefix tokens matched —
// cannot reach the equivalent-overlap threshold.
//
// PPJoin is part of the exact prefix-filter family surveyed by Mann et al.;
// the CPSJoin paper reports that ALLPAIRS is within a small factor of the
// best family member on every dataset. Implementing it gives the benchmark
// harness a second exact baseline and tests the claim locally.
//
// As in internal/allpairs there is one probe loop for every worker count:
// the positional prefix index is materialized, then each set probes the
// postings of strictly smaller ids (TestGoldenExactJoins pins pairs and
// counters to what the interleaved loop counted).
package ppjoin

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/verify"
)

type posting struct {
	id  uint32 // index into size-sorted collection
	pos uint32 // token position within the indexed set's prefix
}

// Join computes the exact self-join at Jaccard threshold lambda. Input sets
// must be normalized; they are not modified. Pairs are returned in original
// indices.
func Join(sets [][]uint32, lambda float64) ([]verify.Pair, verify.Counters) {
	return JoinWorkers(sets, lambda, 1)
}

// JoinWorkers is Join executed with the given worker count on the shared
// execution layer (0 = one worker, negative = GOMAXPROCS). Like AllPairs,
// it materializes the complete positional prefix index up front and probes
// against postings of strictly smaller ids; the positional filter state is
// per probe, so pairs and counters are identical for any worker count.
func JoinWorkers(sets [][]uint32, lambda float64, workers int) ([]verify.Pair, verify.Counters) {
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	workers = exec.EffectiveWorkers(workers)
	ds := (&dataset.Dataset{Sets: sets}).Clone()
	ds.RemapByFrequency()
	perm := ds.SortBySize()
	sorted := ds.Sets
	n := len(sorted)

	index := make(map[uint32][]posting)
	for xi, x := range sorted {
		sx := len(x)
		minOverlapIndex := int(math.Ceil(2 * lambda / (1 + lambda) * float64(sx)))
		if minOverlapIndex < 1 {
			minOverlapIndex = 1
		}
		ip := sx - minOverlapIndex + 1
		for p := 0; p < ip; p++ {
			index[x[p]] = append(index[x[p]], posting{id: uint32(xi), pos: uint32(p)})
		}
	}

	type scratch struct {
		alpha   []int32
		pruned  []bool
		touched []uint32
		pairs   []verify.Pair
		c       verify.Counters
	}
	scr := make([]*scratch, workers)
	for i := range scr {
		scr[i] = &scratch{
			alpha:   make([]int32, n),
			pruned:  make([]bool, n),
			touched: make([]uint32, 0, 1024),
		}
	}

	probe := func(w *scratch, xi int) {
		x := sorted[xi]
		sx := len(x)
		minsize := int(math.Ceil(lambda * float64(sx)))
		minOverlapProbe := minsize
		if minOverlapProbe < 1 {
			minOverlapProbe = 1
		}
		pp := sx - minOverlapProbe + 1
		touched := w.touched[:0]

		for p := 0; p < pp; p++ {
			list := index[x[p]]
			start := sort.Search(len(list), func(i int) bool {
				return len(sorted[list[i].id]) >= minsize
			})
			for _, post := range list[start:] {
				yi := post.id
				if int(yi) >= xi {
					break
				}
				w.c.PreCandidates++
				if w.pruned[yi] {
					continue
				}
				// A candidate is in touched iff alpha > 0 or pruned, so
				// record first contact before any state change.
				if w.alpha[yi] == 0 {
					touched = append(touched, yi)
				}
				y := sorted[yi]
				required := intset.JaccardOverlapBound(sx, len(y), lambda)
				// Positional filter: tokens matched so far plus everything
				// that can still match after positions p (in x) and
				// post.pos (in y).
				ubound := int(w.alpha[yi]) + 1 + min(sx-p-1, len(y)-int(post.pos)-1)
				if ubound < required {
					w.pruned[yi] = true
					continue
				}
				w.alpha[yi]++
			}
		}

		for _, yi := range touched {
			w.alpha[yi] = 0
			if w.pruned[yi] {
				w.pruned[yi] = false
				continue
			}
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
