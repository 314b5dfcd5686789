package ssjoin

import (
	"math"
	"testing"

	"repro/internal/datagen"
)

// TestRecallByBand holds CPSJoin, MinHash LSH and BayesLSH-lite to their
// documented per-pair guarantees at λ = 0.5, band by band. Each reports a
// pair at similarity λ with probability ϕ: 0.9 for MinHash LSH's
// TargetRecall and CPSJoin's 10 repetitions, 0.95 for BayesLSH-lite's
// TargetRecall. A sketch test drawn once per join then drops the pair in
// every repetition with probability up to a budget: the sketch filter's
// δ = 0.05 for the first two, the sequential test's γ = 0.05 for
// BayesLSH-lite. So near λ the guarantee is ϕ times one less the budget,
// and a pair a tenth above λ, where the tests almost never err, keeps ϕ.
//
// The pairs are planted by datagen.PlantPairs into a flat background and
// counted in the band of their exact Jaccard similarity. Each floor is the
// guarantee less three binomial standard deviations at the band's pair
// count, so a join that meets its guarantee fails a band with probability
// about 0.1 %, treating pairs as independent.
func TestRecallByBand(t *testing.T) {
	const lambda = 0.5
	bands := []struct {
		name   string
		lo, hi float64
		near   bool // within a tenth of λ, where the sketch test can drop a pair
	}{
		{"[λ, λ+0.02)", lambda, lambda + 0.02, true},
		{"[λ+0.02, λ+0.05)", lambda + 0.02, lambda + 0.05, true},
		{"[λ+0.05, λ+0.1)", lambda + 0.05, lambda + 0.1, true},
		{"≥ λ+0.1", lambda + 0.1, 2, false},
	}
	ds := datagen.Uniform(2000, 50, 20000, 61)
	var planted [][2]int
	for i, j := range []float64{0.51, 0.535, 0.575, 0.65} {
		planted = append(planted, datagen.PlantPairs(ds, 1000, j, uint64(62+i))...)
	}
	sets := ds.Sets
	band := make([]int, len(planted)) // the band of each planted pair, -1 below λ
	total := make([]int, len(bands))
	for i, p := range planted {
		band[i] = -1
		s := Jaccard(sets[p[0]], sets[p[1]])
		for b := range bands {
			if s >= bands[b].lo && s < bands[b].hi {
				band[i] = b
				total[b]++
			}
		}
	}
	for b := range bands {
		if total[b] < 100 {
			t.Fatalf("band %s holds %d planted pairs, want at least 100", bands[b].name, total[b])
		}
	}
	for _, alg := range []struct {
		name        string
		join        func([][]uint32, float64, *Options) ([]Pair, Stats)
		phi, budget float64
	}{
		{"cpsjoin", CPSJoin, 0.9, 0.05},
		{"minhash", MinHashJoin, 0.9, 0.05},
		{"bayeslsh", BayesLSHJoin, 0.95, 0.05},
	} {
		t.Run(alg.name, func(t *testing.T) {
			pairs, _ := alg.join(sets, lambda, &Options{Seed: 63, Workers: -1})
			reported := make(map[Pair]bool, len(pairs))
			for _, p := range pairs {
				reported[p] = true
			}
			found := make([]int, len(bands))
			for i, p := range planted {
				if band[i] >= 0 && reported[Pair{A: p[0], B: p[1]}] {
					found[band[i]]++
				}
			}
			for b, bd := range bands {
				p := alg.phi // the documented per-pair recall
				if bd.near {
					p *= 1 - alg.budget
				}
				n := float64(total[b])
				floor := p - 3*math.Sqrt(p*(1-p)/n)
				recall := float64(found[b]) / n
				t.Logf("J in %s: recall %.3f (%d of %d), floor %.3f", bd.name, recall, found[b], total[b], floor)
				if recall < floor {
					t.Errorf("J in %s: recall %.3f (%d of %d) below the floor %.3f (%.3f less three binomial standard deviations)",
						bd.name, recall, found[b], total[b], floor, p)
				}
			}
		})
	}
}
