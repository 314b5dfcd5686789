package allpairs

import (
	"repro/internal/dataset"
	"repro/internal/verify"
)

// JoinRS computes the exact R-S join {(i, j) : J(r[i], s[j]) >= lambda}
// with prefix filtering: the collection S is indexed once by its prefixes,
// then every record of R probes the index. Pairs are returned with A
// indexing r and B indexing s.
//
// Prefix soundness for two-collection joins: a qualifying pair needs
// overlap at least intset.MinOverlap(|x|, |y|, λ), which is at least
// intset.MinShare(|x|, λ) and at least intset.MinShare(|y|, λ) for any
// pair passing the size filter; hence prefixes of length
// |x| - MinShare(|x|, λ) + 1 (probePrefix) on both sides must share a token
// under any common global token order.
func JoinRS(r, s [][]uint32, lambda float64) ([]verify.Pair, verify.Counters) {
	return JoinRSWorkers(r, s, lambda, 1)
}

// JoinRSWorkers is JoinRS with the R-side probes spread over the given
// number of workers (0 = one worker, negative = GOMAXPROCS). The S index
// is built once and read-only during probing, and each probe is
// independent, so pairs and counters are identical for any worker count;
// the pairs are sorted by A, then B.
func JoinRSWorkers(r, s [][]uint32, lambda float64, workers int) ([]verify.Pair, verify.Counters) {
	if len(r) == 0 || len(s) == 0 {
		return nil, verify.Counters{}
	}
	// One frequency order over R ∪ S, on a copy (rare tokens first).
	ds := (&dataset.Dataset{Sets: append(r[:len(r):len(r)], s...)}).Clone()
	ds.RemapByFrequency()
	rr, ss := ds.Sets[:len(r)], ds.Sets[len(r):]

	index := make(map[uint32][]uint32)
	for yi, y := range ss {
		for _, tok := range y[:probePrefix(len(y), lambda)] {
			index[tok] = append(index[tok], uint32(yi))
		}
	}
	// The index holds every size, so a set of S is a candidate once, however
	// many prefix tokens it shares; the size filter comes at verification.
	pairs, c := join(rr, ss, lambda, workers, func(w *scratch, xi int) {
		x := rr[xi]
		for _, tok := range x[:probePrefix(len(x), lambda)] {
			for _, yi := range index[tok] {
				w.c.PreCandidates++
				w.touch(yi)
				w.mark[yi] = 1
			}
		}
	})
	verify.SortPairs(pairs)
	return pairs, c
}
