// Package datagen generates the synthetic workloads used in the paper's
// evaluation (TOKENS, UNIFORM, ZIPF) plus scaled-down synthetic analogues
// of the real-world benchmark datasets of Mann et al., which are not
// redistributable: an analogue keeps its dataset's average set size and
// token-frequency structure, which is what the paper's comparisons turn on.
package datagen

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/intset"
	"repro/internal/tabhash"
)

// TokensConfig describes a TOKENS-style dataset (Section VI-1 of the
// paper): a small universe where every token appears in a large, capped
// number of sets — the adversarial regime for prefix filtering.
type TokensConfig struct {
	Universe    int // d; the paper uses 1000
	TokenCap    int // max sets a token may appear in (10000/15000/20000)
	BackgroundJ float64
	PlantedJs   []float64 // expected Jaccard of planted pairs
	PairsPerJ   int       // planted pairs per value in PlantedJs
	Seed        uint64
}

// DefaultTokensConfig mirrors the paper's TOKENS generation: d=1000,
// background expected Jaccard 0.2, 100 planted sets (50 pairs) per
// λ' ∈ {0.55, 0.65, 0.75, 0.85, 0.95}.
func DefaultTokensConfig(tokenCap int, seed uint64) TokensConfig {
	return TokensConfig{
		Universe:    1000,
		TokenCap:    tokenCap,
		BackgroundJ: 0.2,
		PlantedJs:   []float64{0.55, 0.65, 0.75, 0.85, 0.95},
		PairsPerJ:   50,
		Seed:        seed,
	}
}

// setSizeFor returns the size of uniformly random subsets of [d] so that
// two independent draws have expected Jaccard similarity j:
// s = (2j/(1+j))·d (Section VI-1 of the paper).
func setSizeFor(j float64, universe int) int {
	s := int(math.Round(2 * j / (1 + j) * float64(universe)))
	if s < 1 {
		s = 1
	}
	if s > universe {
		s = universe
	}
	return s
}

// Tokens generates a TOKENS dataset. The number of sets is determined by
// the token cap: background sets are sampled (rejecting tokens at cap)
// until token budget is exhausted, exactly like the paper's construction.
// The returned plantedPairs lists index pairs with expected Jaccard
// PlantedJs (ground truth seeds for recall experiments).
func Tokens(cfg TokensConfig) (*dataset.Dataset, [][2]int) {
	rng := tabhash.NewSplitMix64(cfg.Seed)
	usage := make([]int, cfg.Universe)
	ds := &dataset.Dataset{Name: fmt.Sprintf("TOKENS-cap%d", cfg.TokenCap)}
	var planted [][2]int

	sampleSet := func(size int) []uint32 {
		// Sample `size` distinct tokens among those under cap. If fewer
		// than `size` remain under cap, take all of them.
		avail := make([]uint32, 0, cfg.Universe)
		for tok := 0; tok < cfg.Universe; tok++ {
			if usage[tok] < cfg.TokenCap {
				avail = append(avail, uint32(tok))
			}
		}
		if len(avail) == 0 {
			return nil
		}
		if size > len(avail) {
			size = len(avail)
		}
		// Partial Fisher-Yates over the availability pool.
		for i := 0; i < size; i++ {
			j := i + rng.Intn(len(avail)-i)
			avail[i], avail[j] = avail[j], avail[i]
		}
		set := append([]uint32(nil), avail[:size]...)
		for _, tok := range set {
			usage[tok]++
		}
		return intset.Normalize(set)
	}

	// Plant similar pairs first so caps don't starve them.
	for _, j := range cfg.PlantedJs {
		size := setSizeFor(j, cfg.Universe)
		for p := 0; p < cfg.PairsPerJ; p++ {
			a := sampleSet(size)
			b := sampleSet(size)
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			ds.Sets = append(ds.Sets, a, b)
			planted = append(planted, [2]int{len(ds.Sets) - 2, len(ds.Sets) - 1})
		}
	}

	// Fill with background sets until the token budget runs out.
	bgSize := setSizeFor(cfg.BackgroundJ, cfg.Universe)
	for {
		set := sampleSet(bgSize)
		if len(set) < bgSize/2 || len(set) < 2 {
			break // caps nearly exhausted; stop like the paper's rejection sampler
		}
		ds.Sets = append(ds.Sets, set)
	}
	return ds, planted
}

// Uniform generates n sets whose tokens are drawn uniformly from a universe
// of the given size, with set sizes Poisson-distributed around avgSize
// (minimum 2). This reproduces the UNIFORM005 dataset shape: a flat token
// frequency distribution with no rare tokens for prefix filters to exploit.
func Uniform(n, avgSize, universe int, seed uint64) *dataset.Dataset {
	rng := tabhash.NewSplitMix64(seed)
	ds := &dataset.Dataset{Name: fmt.Sprintf("UNIFORM-n%d", n)}
	for i := 0; i < n; i++ {
		size := poisson(rng, float64(avgSize))
		if size < 2 {
			size = 2
		}
		if size > universe {
			size = universe
		}
		ds.Sets = append(ds.Sets, sampleDistinct(rng, size, func() uint32 {
			return uint32(rng.Intn(universe))
		}))
	}
	return ds
}

// Zipf generates n sets whose tokens follow a Zipf(s) popularity law over
// the universe. Higher skew produces a few very frequent tokens and a long
// tail of rare ones — the structure that favors prefix filtering.
func Zipf(n, avgSize, universe int, skew float64, seed uint64) *dataset.Dataset {
	rng := tabhash.NewSplitMix64(seed)
	zs := newZipfSampler(rng, universe, skew)
	ds := &dataset.Dataset{Name: fmt.Sprintf("ZIPF-n%d-s%.2f", n, skew)}
	for i := 0; i < n; i++ {
		size := poisson(rng, float64(avgSize))
		if size < 2 {
			size = 2
		}
		if size > universe {
			size = universe
		}
		ds.Sets = append(ds.Sets, sampleDistinct(rng, size, zs.sample))
	}
	return ds
}

// sampleDistinct draws `size` distinct tokens using draw(), which must
// eventually produce enough distinct values.
func sampleDistinct(rng *tabhash.SplitMix64, size int, draw func() uint32) []uint32 {
	seen := make(map[uint32]bool, size)
	set := make([]uint32, 0, size)
	attempts := 0
	for len(set) < size {
		tok := draw()
		if !seen[tok] {
			seen[tok] = true
			set = append(set, tok)
		}
		attempts++
		if attempts > 1000*size {
			break // degenerate distribution; return what we have
		}
	}
	return intset.Normalize(set)
}

// poisson draws from a Poisson distribution with mean lambda (Knuth's
// method for small lambda, normal approximation above 30).
func poisson(rng *tabhash.SplitMix64, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		v := lambda + math.Sqrt(lambda)*gaussian(rng) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// gaussian draws a standard normal via Box-Muller.
func gaussian(rng *tabhash.SplitMix64) float64 {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// zipfSampler draws token ids with P(i) ∝ 1/(i+1)^s via inverse-CDF over a
// precomputed table (universe sizes here are modest).
type zipfSampler struct {
	rng *tabhash.SplitMix64
	cdf []float64
}

func newZipfSampler(rng *tabhash.SplitMix64, universe int, skew float64) *zipfSampler {
	cdf := make([]float64, universe)
	sum := 0.0
	for i := 0; i < universe; i++ {
		sum += 1 / math.Pow(float64(i+1), skew)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{rng: rng, cdf: cdf}
}

func (z *zipfSampler) sample() uint32 {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(z.cdf) {
		lo = len(z.cdf) - 1
	}
	return uint32(lo)
}

// PlantPairs injects `pairs` additional set pairs with expected Jaccard
// similarity j into ds, by cloning existing sets and resampling a fraction
// of their tokens from the donor's own tokens plus fresh ones drawn by the
// same process that would produce them. It returns the planted index pairs.
// Planting guarantees joinable mass at high thresholds in synthetic data.
func PlantPairs(ds *dataset.Dataset, pairs int, j float64, seed uint64) [][2]int {
	rng := tabhash.NewSplitMix64(seed)
	var planted [][2]int
	if len(ds.Sets) == 0 || pairs <= 0 {
		return planted
	}
	for p := 0; p < pairs; p++ {
		src := ds.Sets[rng.Intn(len(ds.Sets))]
		if len(src) < 2 {
			continue
		}
		// Build b by keeping a fraction of src and replacing the rest with
		// perturbed tokens. For |a|=|b|=s and shared o tokens,
		// J = o/(2s-o), so o = 2sJ/(1+J).
		s := len(src)
		o := int(math.Round(2 * float64(s) * j / (1 + j)))
		if o > s {
			o = s
		}
		a := append([]uint32(nil), src...)
		// Choose o tokens to keep (partial Fisher-Yates).
		perm := append([]uint32(nil), src...)
		for i := 0; i < o; i++ {
			k := i + rng.Intn(len(perm)-i)
			perm[i], perm[k] = perm[k], perm[i]
		}
		b := append([]uint32(nil), perm[:o]...)
		// Fill b back to size s with fresh tokens unlikely to collide.
		seen := make(map[uint32]bool, s)
		for _, tok := range b {
			seen[tok] = true
		}
		for len(b) < s {
			tok := uint32(rng.Next() >> 33) // 31-bit fresh token
			if !seen[tok] {
				seen[tok] = true
				b = append(b, tok)
			}
		}
		ds.Sets = append(ds.Sets, intset.Normalize(a), intset.Normalize(b))
		planted = append(planted, [2]int{len(ds.Sets) - 2, len(ds.Sets) - 1})
	}
	return planted
}

// Clustered generates a dataset of near-duplicate clusters: `clusters`
// groups of `perCluster` sets each, where every member is an independent
// mutation of the cluster's core set (each core token is kept with
// probability 1-mutation and otherwise replaced with a fresh token).
// Two members of one cluster then have expected Jaccard similarity about
// (1-mutation)² / (2 - (1-mutation)²), while members of different clusters
// are nearly disjoint. This is the archetypal entity-resolution workload:
// many small groups of records describing the same entity.
func Clustered(clusters, perCluster, coreSize, universe int, mutation float64, seed uint64) *dataset.Dataset {
	rng := tabhash.NewSplitMix64(seed)
	ds := &dataset.Dataset{Name: fmt.Sprintf("CLUSTERED-%dx%d", clusters, perCluster)}
	if coreSize < 2 {
		coreSize = 2
	}
	for c := 0; c < clusters; c++ {
		core := sampleDistinct(rng, coreSize, func() uint32 {
			return uint32(rng.Intn(universe))
		})
		for m := 0; m < perCluster; m++ {
			member := make([]uint32, 0, len(core))
			seen := make(map[uint32]bool, len(core))
			for _, tok := range core {
				if rng.Float64() >= mutation {
					if !seen[tok] {
						seen[tok] = true
						member = append(member, tok)
					}
					continue
				}
				// Replace with a fresh token outside the shared universe so
				// mutations never collide across members.
				for {
					fresh := uint32(universe) + uint32(rng.Next()>>40)
					if !seen[fresh] {
						seen[fresh] = true
						member = append(member, fresh)
						break
					}
				}
			}
			if len(member) < 2 {
				member = append(member, uint32(rng.Intn(universe)), uint32(universe)+uint32(rng.Next()>>40))
			}
			ds.Sets = append(ds.Sets, intset.Normalize(member))
		}
	}
	return ds
}

// Profile describes the published statistics of one of the real benchmark
// datasets (Table I of the paper) plus a Zipf skew calibrated to its
// rare-token structure. Generate produces a scaled synthetic analogue.
type Profile struct {
	Name         string
	NumSets      int // full-size set count from Table I
	AvgSetSize   float64
	SetsPerToken float64
	Skew         float64 // token popularity skew; 0 = uniform (no rare tokens)
}

// Profiles are the 10 real datasets of Mann et al. as summarized in
// Table I, with skew chosen per the paper's qualitative description:
// datasets where ALLPAIRS wins (AOL, FLICKR, SPOTIFY) have many rare
// tokens (high skew); datasets where CPSJoin wins (NETFLIX, DBLP, UNIFORM)
// have flat token usage (low skew).
var Profiles = []Profile{
	{Name: "AOL", NumSets: 7_350_000, AvgSetSize: 3.8, SetsPerToken: 18.9, Skew: 0.95},
	{Name: "BMS-POS", NumSets: 320_000, AvgSetSize: 9.3, SetsPerToken: 1797.9, Skew: 0.40},
	{Name: "DBLP", NumSets: 100_000, AvgSetSize: 82.7, SetsPerToken: 1204.4, Skew: 0.30},
	{Name: "ENRON", NumSets: 250_000, AvgSetSize: 135.3, SetsPerToken: 29.8, Skew: 0.75},
	{Name: "FLICKR", NumSets: 1_140_000, AvgSetSize: 10.8, SetsPerToken: 16.3, Skew: 0.95},
	{Name: "KOSARAK", NumSets: 590_000, AvgSetSize: 12.2, SetsPerToken: 176.3, Skew: 0.85},
	{Name: "LIVEJ", NumSets: 300_000, AvgSetSize: 37.5, SetsPerToken: 15.0, Skew: 0.70},
	{Name: "NETFLIX", NumSets: 480_000, AvgSetSize: 209.8, SetsPerToken: 5654.4, Skew: 0.15},
	{Name: "ORKUT", NumSets: 2_680_000, AvgSetSize: 122.2, SetsPerToken: 37.5, Skew: 0.55},
	{Name: "SPOTIFY", NumSets: 360_000, AvgSetSize: 15.3, SetsPerToken: 7.4, Skew: 0.90},
}

// ProfileByName returns the profile with the given name, or false.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate produces a synthetic dataset with the profile's average set size
// and sets-per-token ratio, scaled down to n sets (n <= NumSets; the
// universe is scaled proportionally to preserve the sets/token ratio).
// Pairs with elevated similarity are planted so that joins at the paper's
// thresholds have non-trivial result sets, mimicking the near-duplicate
// mass present in the real data.
func (p Profile) Generate(n int, seed uint64) *dataset.Dataset {
	if n <= 0 || n > p.NumSets {
		n = p.NumSets
	}
	universe := int(math.Round(float64(n) * p.AvgSetSize / p.SetsPerToken))
	// At small scale a dense profile (sets/token >> n) can push the
	// universe below the average set size, which is unsatisfiable. Floor
	// the universe at 3x the average set size: the sets/token ratio is
	// reduced but stays proportional to the profile's, so the relative
	// ordering of profiles (the property the experiments depend on) is
	// preserved, and background pairs keep expected Jaccard ~0.2.
	if min := int(3 * p.AvgSetSize); universe < min {
		universe = min
	}
	if universe < 8 {
		universe = 8
	}
	avg := int(math.Round(p.AvgSetSize))
	if avg < 2 {
		avg = 2
	}
	var ds *dataset.Dataset
	if p.Skew < 0.05 {
		ds = Uniform(n, avg, universe, seed)
	} else {
		ds = Zipf(n, avg, universe, p.Skew, seed)
	}
	ds.Name = p.Name
	// Plant ~0.2% of n as similar pairs across the threshold range.
	per := n / 1000
	if per < 5 {
		per = 5
	}
	for i, j := range []float64{0.55, 0.65, 0.75, 0.85, 0.95} {
		PlantPairs(ds, per, j, seed+uint64(i)+1)
	}
	ds.Clean()
	return ds
}
