package ssjoin

import (
	"math"
	"testing"

	"repro/internal/datagen"
)

// TestRecallByBand holds CPSJoin and MinHash LSH to their documented
// per-pair guarantee at λ = 0.5, band by band. Both report a pair at
// similarity λ with probability ϕ = 0.9 (MinHash LSH's TargetRecall,
// CPSJoin's 10 repetitions), and their sketch filter, drawn once per join,
// drops it in every repetition with probability up to δ = 0.05: near λ the
// guarantee is ϕ·(1−δ) = 0.855, and a pair a tenth above λ, where the
// filter almost never errs, keeps ϕ.
//
// The pairs are planted by datagen.PlantPairs into a flat background and
// counted in the band of their exact Jaccard similarity. Each floor is the
// guarantee less three binomial standard deviations at the band's pair
// count, so a join that meets its guarantee fails a band with probability
// about 0.1 %, treating pairs as independent.
func TestRecallByBand(t *testing.T) {
	const (
		lambda = 0.5
		phi    = 0.9
		delta  = 0.05
	)
	bands := []struct {
		name   string
		lo, hi float64
		p      float64 // the documented per-pair recall
	}{
		{"[λ, λ+0.02)", lambda, lambda + 0.02, phi * (1 - delta)},
		{"[λ+0.02, λ+0.05)", lambda + 0.02, lambda + 0.05, phi * (1 - delta)},
		{"[λ+0.05, λ+0.1)", lambda + 0.05, lambda + 0.1, phi * (1 - delta)},
		{"≥ λ+0.1", lambda + 0.1, 2, phi},
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
		name string
		join func([][]uint32, float64, *Options) ([]Pair, Stats)
	}{{"cpsjoin", CPSJoin}, {"minhash", MinHashJoin}} {
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
				n := float64(total[b])
				floor := bd.p - 3*math.Sqrt(bd.p*(1-bd.p)/n)
				recall := float64(found[b]) / n
				t.Logf("J in %s: recall %.3f (%d of %d), floor %.3f", bd.name, recall, found[b], total[b], floor)
				if recall < floor {
					t.Errorf("J in %s: recall %.3f (%d of %d) below the floor %.3f (%.3f less three binomial standard deviations)",
						bd.name, recall, found[b], total[b], floor, bd.p)
				}
			}
		})
	}
}
