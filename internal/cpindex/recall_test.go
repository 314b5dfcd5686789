package cpindex

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/race"
	"repro/internal/tabhash"
)

// The two collection shapes of the perf ledger (benchmark/gen.go), rebuilt
// here on the repository's own PRNG: flat is the paper's UNIFORM005 shape,
// Poisson(10) sizes over 209 equally likely tokens, so every pair of sets
// has some similarity and no token is rare; skew is Zipf(1.0) tokens over a
// universe of 2n with log-normal sizes (median 5, σ 1.3, clipped at 2000).
// Sets are distinct, as in the ledger's inputs.
type testShape struct {
	name  string
	size  func(r *tabhash.SplitMix64) int
	token func(r *tabhash.SplitMix64) uint32
}

func flatShape() testShape {
	return testShape{
		name: "flat",
		size: func(r *tabhash.SplitMix64) int {
			k, p := 0, r.Float64() // Knuth's Poisson(10)
			for limit := math.Exp(-10); p > limit; k++ {
				p *= r.Float64()
			}
			return max(2, k)
		},
		token: func(r *tabhash.SplitMix64) uint32 { return uint32(r.Intn(209)) },
	}
}

func skewShape(n int) testShape {
	cdf := make([]float64, 2*n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	return testShape{
		name: "skew",
		size: func(r *tabhash.SplitMix64) int {
			u := max(r.Float64(), math.SmallestNonzeroFloat64)
			z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.Float64())
			return min(2000, max(2, int(math.Round(5*math.Exp(1.3*z)))))
		},
		token: func(r *tabhash.SplitMix64) uint32 {
			i, _ := slices.BinarySearch(cdf, r.Float64()*sum)
			return uint32(min(i, len(cdf)-1))
		},
	}
}

// draw returns size distinct tokens of the shape, none of them in avoid.
func (sh testShape) draw(r *tabhash.SplitMix64, size int, avoid []uint32) []uint32 {
	out := make([]uint32, 0, size)
	for len(out) < size {
		if t := sh.token(r); !slices.Contains(out, t) && !slices.Contains(avoid, t) {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// collection returns n distinct sets of the shape.
func (sh testShape) collection(n int, seed uint64) [][]uint32 {
	r := tabhash.NewSplitMix64(seed)
	seen := make(map[string]bool, n)
	sets := make([][]uint32, 0, n)
	for len(sets) < n {
		s := sh.draw(r, sh.size(r), nil)
		if k := fmt.Sprint(s); !seen[k] {
			seen[k] = true
			sets = append(sets, s)
		}
	}
	return sets
}

// recallBands are the similarities planted pairs are built at, each with
// the union sizes it can be hit exactly on (J = |a∩b| / |a∪b|).
var recallBands = []struct {
	j      float64
	unions []int
	floor  float64
}{
	{1.0, []int{6, 10, 14, 20}, 0.99},
	{0.7, []int{10, 20, 30}, 0.99},
	{0.6, []int{10, 15, 20, 25}, 0.99},
	{0.55, []int{20, 40}, 0.99},
	{0.5, []int{10, 16, 20, 30}, 0.98},
}

type plantedQuery struct {
	q      []uint32
	target int // id of the indexed set at exactly the band's similarity
	band   int
}

// plant appends per sets b for every band and returns the queries a that
// go with them: a and b share round(J·u) tokens of the shape and split the
// other tokens of their union of u at random.
func (sh testShape) plant(sets [][]uint32, per int, seed uint64) ([][]uint32, []plantedQuery) {
	r := tabhash.NewSplitMix64(seed)
	var qs []plantedQuery
	for bi, band := range recallBands {
		for i := 0; i < per; i++ {
			u := band.unions[i%len(band.unions)]
			shared := sh.draw(r, int(math.Round(band.j*float64(u))), nil)
			a, b := slices.Clone(shared), slices.Clone(shared)
			for _, t := range sh.draw(r, u-len(shared), shared) {
				if r.Next()&1 == 0 {
					a = append(a, t)
				} else {
					b = append(b, t)
				}
			}
			slices.Sort(a)
			slices.Sort(b)
			sets = append(sets, b)
			qs = append(qs, plantedQuery{q: a, target: len(sets) - 1, band: bi})
		}
	}
	return sets, qs
}

// TestRecallByBand states the recall the default options deliver at
// λ = 0.5 as floors at fixed seeds: a planted neighbor at J ≥ 0.55 is
// returned by QueryAll at least 99 times in 100, one at exactly J = λ at
// least 98 times in 100, on the flat and on the skewed shape at 10 000 sets
// — the per-tree success probability of treeBuilder.add's branching
// process, ten times over.
func TestRecallByBand(t *testing.T) {
	const n, per = 10000, 150
	buildSeeds := []uint64{1, 2, 3}
	if race.Enabled || testing.Short() {
		buildSeeds = buildSeeds[:1]
	}
	for _, sh := range []testShape{flatShape(), skewShape(n)} {
		t.Run(sh.name, func(t *testing.T) {
			sets, qs := sh.plant(sh.collection(n, 7), per, 8)
			hits := make([]int, len(recallBands))
			var dst []Match
			for _, seed := range buildSeeds {
				ix := Build(sets, 0.5, &Options{Seed: seed, Workers: -1})
				for _, pq := range qs {
					dst = ix.AppendAll(dst[:0], pq.q)
					if slices.ContainsFunc(dst, func(m Match) bool { return m.ID == pq.target }) {
						hits[pq.band]++
					}
				}
			}
			for bi, band := range recallBands {
				total := per * len(buildSeeds)
				recall := float64(hits[bi]) / float64(total)
				t.Logf("J = %.2f: recall %.4f (%d of %d)", band.j, recall, hits[bi], total)
				if recall < band.floor {
					t.Errorf("J = %.2f: recall %.4f (%d of %d) below the %.2f floor", band.j, recall, hits[bi], total, band.floor)
				}
			}
		})
	}
}
