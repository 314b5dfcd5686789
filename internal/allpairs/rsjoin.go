package allpairs

import (
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/verify"
)

// JoinRS computes the exact R-S join {(i, j) : J(r[i], s[j]) >= lambda}
// with prefix filtering: the collection S is indexed once by its prefixes,
// then every record of R probes the index. Pairs are returned with A
// indexing r and B indexing s.
//
// Prefix soundness for two-collection joins: a qualifying pair needs
// overlap at least ceil(λ/(1+λ)(|x|+|y|)), which is at least
// ceil(λ·|x|) and at least ceil(λ·|y|) for any pair passing the size
// filter λ|x| <= |y| <= |x|/λ; hence prefixes of length
// |x| - ceil(λ|x|) + 1 on both sides must share a token under any common
// global token order.
func JoinRS(r, s [][]uint32, lambda float64) ([]verify.Pair, verify.Counters) {
	return JoinRSWorkers(r, s, lambda, 1)
}

// JoinRSWorkers is JoinRS with the R-side probes spread over the given
// number of workers (0 = one worker, negative = GOMAXPROCS). The S index
// is built once and read-only during probing, and each probe is
// independent, so pairs and counters are identical for any worker count.
func JoinRSWorkers(r, s [][]uint32, lambda float64, workers int) ([]verify.Pair, verify.Counters) {
	if len(r) == 0 || len(s) == 0 {
		return nil, verify.Counters{}
	}
	workers = exec.EffectiveWorkers(workers)

	// Build a shared frequency order over R ∪ S and produce reordered
	// copies (rare tokens first) without touching the inputs.
	freq := make(map[uint32]int)
	for _, x := range r {
		for _, tok := range x {
			freq[tok]++
		}
	}
	for _, y := range s {
		for _, tok := range y {
			freq[tok]++
		}
	}
	rank := rankByFrequency(freq)
	rr := reorder(r, rank)
	ss := reorder(s, rank)

	// Index the prefixes of S.
	prefixLen := func(size int) int {
		mo := int(math.Ceil(lambda * float64(size)))
		if mo < 1 {
			mo = 1
		}
		return size - mo + 1
	}
	index := make(map[uint32][]uint32)
	for yi, y := range ss {
		for p := 0; p < prefixLen(len(y)); p++ {
			index[y[p]] = append(index[y[p]], uint32(yi))
		}
	}

	type scratch struct {
		overlapSeen []bool
		touched     []uint32
		pairs       []verify.Pair
		c           verify.Counters
	}
	scr := make([]*scratch, workers)
	for i := range scr {
		scr[i] = &scratch{overlapSeen: make([]bool, len(ss)), touched: make([]uint32, 0, 256)}
	}

	probe := func(w *scratch, xi int) {
		x := rr[xi]
		touched := w.touched[:0]
		for p := 0; p < prefixLen(len(x)); p++ {
			for _, yi := range index[x[p]] {
				w.c.PreCandidates++
				if w.overlapSeen[yi] {
					continue
				}
				w.overlapSeen[yi] = true
				touched = append(touched, yi)
			}
		}
		for _, yi := range touched {
			w.overlapSeen[yi] = false
			y := ss[yi]
			// Size filter.
			la, lb := len(x), len(y)
			if la > lb {
				la, lb = lb, la
			}
			if float64(la) < lambda*float64(lb) {
				continue
			}
			w.c.Candidates++
			required := intset.JaccardOverlapBound(len(x), len(y), lambda)
			if _, ok := intset.IntersectSizeAtLeast(x, y, required); ok {
				w.c.Results++
				w.pairs = append(w.pairs, verify.Pair{A: uint32(xi), B: yi})
			}
		}
		w.touched = touched[:0]
	}

	exec.RunChunks(workers, len(rr), 0, func(c *exec.Ctx, lo, hi int) {
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

// rankByFrequency assigns each token a rank by ascending frequency.
func rankByFrequency(freq map[uint32]int) map[uint32]uint32 {
	tokens := make([]uint32, 0, len(freq))
	for tok := range freq {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(i, j int) bool {
		fi, fj := freq[tokens[i]], freq[tokens[j]]
		if fi != fj {
			return fi < fj
		}
		return tokens[i] < tokens[j]
	})
	rank := make(map[uint32]uint32, len(tokens))
	for i, tok := range tokens {
		rank[tok] = uint32(i)
	}
	return rank
}

// reorder maps every set through rank and sorts it ascending (rare-first).
func reorder(sets [][]uint32, rank map[uint32]uint32) [][]uint32 {
	out := make([][]uint32, len(sets))
	for i, set := range sets {
		m := make([]uint32, len(set))
		for j, tok := range set {
			m[j] = rank[tok]
		}
		sort.Slice(m, func(a, b int) bool { return m[a] < m[b] })
		out[i] = m
	}
	return out
}
