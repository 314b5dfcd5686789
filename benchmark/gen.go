package main

// Frozen input generators. Everything a workload feeds a child process —
// set collections, planted pairs, query pools, arrival schedules — is a
// pure function of the workload seed and of constants in this file, so
// two commits are always measured on identical bytes. The generators use
// their own PRNG (not math/rand, not internal/datagen) for the same
// reason: nothing outside benchmark/ can change what is generated.

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"
)

// rng is splitmix64: tiny, fast and fully specified here.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the workload seed and a
// stream label, so adding a consumer never shifts another's draws.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// norm returns a standard normal variate (Box–Muller, one value per call).
func (r *rng) norm() float64 {
	return math.Sqrt(-2*math.Log(1-r.float())) * math.Cos(2*math.Pi*r.float())
}

// poisson returns a Poisson(mean) variate (Knuth; mean is small here).
func (r *rng) poisson(mean float64) int {
	l, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= r.float()
		if p <= l {
			return k
		}
		k++
	}
}

// tokenSampler draws one token; collections differ only in this.
type tokenSampler func(r *rng) uint32

func uniformTokens(universe int) tokenSampler {
	return func(r *rng) uint32 { return uint32(r.intn(universe)) }
}

// zipfTokens samples rank k with probability ∝ 1/(k+1)^s by inverting a
// precomputed CDF.
func zipfTokens(universe int, s float64) tokenSampler {
	cdf := make([]float64, universe)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	return func(r *rng) uint32 {
		return uint32(sort.SearchFloat64s(cdf, r.float()*sum))
	}
}

// drawSet returns size distinct tokens, sorted; avoid (may be nil) lists
// tokens that must not be drawn.
func drawSet(r *rng, tok tokenSampler, size int, avoid map[uint32]bool) []uint32 {
	seen := make(map[uint32]bool, size)
	out := make([]uint32, 0, size)
	for len(out) < size {
		t := tok(r)
		if seen[t] || avoid[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// plantedPair is a pair of set ids whose exact Jaccard similarity is known
// by construction (J = Inter / Union), so truth needs no O(n²) pass.
type plantedPair struct {
	A, B         int
	Inter, Union int
}

func (p plantedPair) jaccard() float64 { return float64(p.Inter) / float64(p.Union) }

// collection is one generated input: already clean for ssjoin (sorted
// distinct tokens, size ≥ 2, no duplicate sets), so line i of the written
// file is set id i in every program's output.
type collection struct {
	Sets    [][]uint32
	Planted []plantedPair
}

// sweepThresholds are the join thresholds every join workload sweeps.
var sweepThresholds = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// plantClasses are the similarity classes planted pairs are drawn from:
// one just above each sweep threshold, so every threshold has at least
// pairsPerClass true pairs and the hardest ones (J barely over λ) are
// always present.
var plantClasses = [][2]float64{{0.52, 0.6}, {0.62, 0.7}, {0.72, 0.8}, {0.82, 0.9}, {0.92, 0.98}}

type shape struct {
	n             int // total sets, planted ones included
	pairsPerClass int
	size          func(r *rng) int // background set size
	tokens        tokenSampler
	coreMin       int // planted pairs share between coreMin and coreMax tokens
	coreMax       int
}

// flatShape is the paper's UNIFORM005 shape: Poisson(10) sizes over 209
// equally likely tokens, so no token is rare and prefix filtering
// degenerates.
func flatShape(n, pairsPerClass int) shape {
	return shape{
		n: n, pairsPerClass: pairsPerClass,
		size:    func(r *rng) int { return max(2, r.poisson(10)) },
		tokens:  uniformTokens(209),
		coreMin: 12, coreMax: 40,
	}
}

// skewShape is the robustness case: Zipf(1.0) token frequencies over a
// universe of 2n, so that about half of the tokens that occur at all occur
// in at most two sets, and log-normal set sizes with median 5 and a heavy
// tail (σ = 1.3, a few sets over 1000 tokens, clipped at 2000). The issue
// sketched a universe of n/2 and a median of 8; with those, exact prefix
// filtering (AllPairs) does not beat CPSJoin's join phase, so the
// collection would not have the shape the paper's robustness claim is
// about. These values give allpairs.speedup between 0.5 and 0.85.
func skewShape(n, pairsPerClass int) shape {
	return shape{
		n: n, pairsPerClass: pairsPerClass,
		size: func(r *rng) int {
			return min(2000, max(2, int(math.Round(5*math.Exp(1.3*r.norm())))))
		},
		tokens:  zipfTokens(2*n, 1.0),
		coreMin: 12, coreMax: 40,
	}
}

// generate builds a collection of the given shape. Planted pairs are
// scattered over the id range (their positions are drawn first), so a
// contiguous shard split sees them evenly.
func generate(sh shape, seed uint64) collection {
	r := newRNG(seed, "collection")
	nPlanted := 2 * sh.pairsPerClass * len(plantClasses)
	if nPlanted > sh.n {
		panic("benchmark: shape has more planted sets than sets")
	}
	// slots[i] is the id of the i-th planted set: a partial shuffle of ids.
	ids := make([]int, sh.n)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < nPlanted; i++ {
		j := i + r.intn(sh.n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	slots := ids[:nPlanted]

	c := collection{Sets: make([][]uint32, sh.n)}
	seen := make(map[string]bool, sh.n)
	place := func(id int, set []uint32) bool {
		k := setKey(set)
		if seen[k] {
			return false
		}
		seen[k] = true
		c.Sets[id] = set
		return true
	}
	for _, class := range plantClasses {
		for p := 0; p < sh.pairsPerClass; p++ {
			a, b := slots[0], slots[1]
			slots = slots[2:]
			for {
				sa, sb, inter, union := plantPair(r, sh, class)
				if setKey(sa) == setKey(sb) || seen[setKey(sa)] || seen[setKey(sb)] {
					continue
				}
				place(a, sa)
				place(b, sb)
				if a > b {
					a, b = b, a
				}
				c.Planted = append(c.Planted, plantedPair{A: a, B: b, Inter: inter, Union: union})
				break
			}
		}
	}
	for id := range c.Sets {
		for c.Sets[id] == nil {
			place(id, drawSet(r, sh.tokens, sh.size(r), nil))
		}
	}
	return c
}

// plantPair draws two sets sharing `core` tokens and differing in `diff`,
// with core/(core+diff) inside the class and not exactly on a sweep
// threshold (a pair sitting on λ would make recall depend on rounding).
func plantPair(r *rng, sh shape, class [2]float64) (a, b []uint32, inter, union int) {
	for {
		core := sh.coreMin + r.intn(sh.coreMax-sh.coreMin+1)
		target := class[0] + (class[1]-class[0])*r.float()
		diff := int(math.Round(float64(core) * (1 - target) / target))
		j := float64(core) / float64(core+diff)
		if diff < 1 || j < class[0] || j >= class[1] {
			continue
		}
		shared := drawSet(r, sh.tokens, core, nil)
		avoid := make(map[uint32]bool, core)
		for _, t := range shared {
			avoid[t] = true
		}
		extra := drawSet(r, sh.tokens, diff, avoid)
		// Split the differing tokens between the two sides at random.
		a = append([]uint32(nil), shared...)
		b = append([]uint32(nil), shared...)
		for _, t := range extra {
			if r.next()&1 == 0 {
				a = append(a, t)
			} else {
				b = append(b, t)
			}
		}
		slices.Sort(a)
		slices.Sort(b)
		return a, b, core, core + diff
	}
}

func setKey(s []uint32) string {
	b := make([]byte, 0, 4*len(s))
	for _, t := range s {
		b = append(b, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	return string(b)
}

// writeSets writes the collection in the one-set-per-line token format.
func writeSets(path string, sets [][]uint32) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for _, set := range sets {
		for i, t := range set {
			if i > 0 {
				w.WriteByte(' ')
			}
			fmt.Fprint(w, t)
		}
		w.WriteByte('\n')
	}
	return w.Flush()
}

// writeCollection writes the collection to path and returns its shape,
// input size included.
func writeCollection(path string, c collection) (*shapeStats, error) {
	if err := writeSets(path, c.Sets); err != nil {
		return nil, err
	}
	st := c.stats()
	if fi, err := os.Stat(path); err == nil {
		st.InputBytes = fi.Size()
	}
	return &st, nil
}

// checksum fingerprints a collection and its planted list; the unit tests
// pin it per (workload, seed) so a generator cannot drift unnoticed.
func (c collection) checksum() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	for _, set := range c.Sets {
		put(uint32(len(set)))
		for _, t := range set {
			put(t)
		}
	}
	for _, p := range c.Planted {
		put(uint32(p.A))
		put(uint32(p.B))
		put(uint32(p.Inter))
		put(uint32(p.Union))
	}
	return h.Sum64()
}

// shapeStats are the dataset properties the README and the result files
// quote so a reader can see the workload has the shape it claims.
type shapeStats struct {
	Sets           int     `json:"sets"`
	Universe       int     `json:"universe"`
	AvgSize        float64 `json:"avg_size"`
	MaxSize        int     `json:"max_size"`
	SetsPerToken   float64 `json:"sets_per_token"`
	RareTokenShare float64 `json:"rare_token_share"` // tokens occurring in ≤ 2 sets
	InputBytes     int64   `json:"input_bytes"`
}

func (c collection) stats() shapeStats {
	freq := map[uint32]int{}
	total, maxSize := 0, 0
	for _, s := range c.Sets {
		total += len(s)
		maxSize = max(maxSize, len(s))
		for _, t := range s {
			freq[t]++
		}
	}
	rare := 0
	for _, f := range freq {
		if f <= 2 {
			rare++
		}
	}
	return shapeStats{
		Sets: len(c.Sets), Universe: len(freq),
		AvgSize:        float64(total) / float64(len(c.Sets)),
		MaxSize:        maxSize,
		SetsPerToken:   float64(total) / float64(len(freq)),
		RareTokenShare: float64(rare) / float64(len(freq)),
	}
}

// query is one read of a serve workload. A query derived from catalogue
// set Target shares Inter of Union tokens with it, so the expected match
// is known without searching.
type query struct {
	Set          []uint32
	Target       int
	Inter, Union int
}

// queryPool draws n distinct queries: every other one is a catalogue set
// verbatim, the rest are perturbed copies (up to a third of the tokens
// dropped, some foreign ones added) whose similarity to their source
// stays at or above minJ.
func queryPool(c collection, tok tokenSampler, n int, minJ float64, seed uint64) []query {
	r := newRNG(seed, "queries")
	out := make([]query, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		id := r.intn(len(c.Sets))
		src := c.Sets[id]
		q := query{Set: src, Target: id, Inter: len(src), Union: len(src)}
		if len(out)%2 == 1 && len(src) >= 4 {
			drop := 1 + r.intn(max(1, len(src)/3))
			add := r.intn(drop + 1)
			if float64(len(src)-drop)/float64(len(src)+add) < minJ {
				continue
			}
			keep := append([]uint32(nil), src...)
			for i := 0; i < drop; i++ {
				j := r.intn(len(keep))
				keep = append(keep[:j], keep[j+1:]...)
			}
			avoid := make(map[uint32]bool, len(src))
			for _, t := range src {
				avoid[t] = true
			}
			keep = append(keep, drawSet(r, tok, add, avoid)...)
			slices.Sort(keep)
			q = query{Set: keep, Target: id, Inter: len(src) - drop, Union: len(src) + add}
		}
		if k := setKey(q.Set); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// poissonArrivals returns the due offsets (seconds from round start) of an
// open-loop round: exponential gaps at the given rate, cut at the round
// length.
func poissonArrivals(r *rng, rate, seconds float64) []float64 {
	var due []float64
	for t := r.exp() / rate; t < seconds; t += r.exp() / rate {
		due = append(due, t)
	}
	return due
}

// zipfRanks returns a sampler of pool indices with P(k) ∝ 1/(k+1): the
// read popularity of the mixed workload.
func zipfRanks(n int) func(r *rng) int {
	tok := zipfTokens(n, 1.0)
	return func(r *rng) int { return int(tok(r)) }
}
