package allpairs

import (
	"sort"

	"repro/internal/verify"
)

// posting is one entry of PPJoin's positional prefix index.
type posting struct {
	id  uint32 // index into size-sorted collection
	pos uint32 // token position within the indexed set's prefix
}

// PPJoin computes the exact self-join at Jaccard threshold lambda with the
// positional filter of PPJoin: a candidate is discarded as soon as its
// maximum attainable overlap — given the positions at which prefix tokens
// matched — cannot reach the equivalent-overlap threshold. Input sets must
// be normalized; they are not modified. Pairs are returned in original
// indices.
func PPJoin(sets [][]uint32, lambda float64) ([]verify.Pair, verify.Counters) {
	return PPJoinWorkers(sets, lambda, 1)
}

// PPJoinWorkers is PPJoin executed with the given worker count on the
// shared execution layer (0 = one worker, negative = GOMAXPROCS). It probes
// like JoinWorkers, and the positional filter state is per probe, so pairs
// (sorted by A, then B) and counters are identical for any worker count.
func PPJoinWorkers(sets [][]uint32, lambda float64, workers int) ([]verify.Pair, verify.Counters) {
	if len(sets) < 2 {
		return nil, verify.Counters{}
	}
	sorted, perm := sizeOrdered(sets)
	index := make(map[uint32][]posting)
	for xi, x := range sorted {
		for p, tok := range x[:indexPrefix(len(x), lambda)] {
			index[tok] = append(index[tok], posting{id: uint32(xi), pos: uint32(p)})
		}
	}
	pairs, c := join(sorted, sorted, lambda, workers, func(w *scratch, xi int) {
		x := sorted[xi]
		sx := len(x)
		for p, tok := range x[:probePrefix(sx, lambda)] {
			list := index[tok]
			start := sort.Search(len(list), func(i int) bool {
				return len(sorted[list[i].id]) >= w.lo
			})
			for _, post := range list[start:] {
				yi := post.id
				if int(yi) >= xi {
					break
				}
				w.c.PreCandidates++
				alpha := w.mark[yi]
				if alpha < 0 { // pruned
					continue
				}
				w.touch(yi)
				y := sorted[yi]
				// Positional filter: tokens matched so far plus everything
				// that can still match after positions p (in x) and
				// post.pos (in y) must reach the overlap y's size needs.
				if int(alpha)+1+min(sx-p-1, len(y)-int(post.pos)-1) < w.need[len(y)-w.lo] {
					w.mark[yi] = -1
					continue
				}
				w.mark[yi] = alpha + 1
			}
		}
	})
	return inOriginalIDs(pairs, perm), c
}
