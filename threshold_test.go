package ssjoin

import (
	"fmt"
	"slices"
	"testing"
)

// TestNestedPairAtTheThreshold joins y ⊂ x with J(x, y) = |y|/|x| = λ
// exactly, at sizes where a product or a ratio of λ rounds past the
// boundary (0.55·100 is above 55, 0.8/1.8·63 above 28). Every exact
// path reports the pair, and so does every approximate one here, on an
// input small enough to be brute-forced, and a search and a sharded query
// for y both find x.
func TestNestedPairAtTheThreshold(t *testing.T) {
	for _, c := range []struct {
		lambda float64
		y, x   int
	}{{0.55, 55, 100}, {0.65, 13, 20}, {0.8, 28, 35}, {0.9, 63, 70}} {
		t.Run(fmt.Sprintf("%d⊂%d", c.y, c.x), func(t *testing.T) {
			x, other := make([]uint32, c.x), make([]uint32, c.y)
			for i := range x {
				x[i] = uint32(i)
			}
			for i := range other {
				other[i] = uint32(1000 + i)
			}
			sets := [][]uint32{x[:c.y], x, other}
			want := []Pair{{A: 0, B: 1}}
			check := func(name string, got []Pair) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Errorf("%s at λ = %v: %v, want %v", name, c.lambda, got, want)
				}
			}
			pairs, _ := AllPairs(sets, c.lambda, nil)
			check("AllPairs", pairs)
			pairs, _ = PPJoin(sets, c.lambda, nil)
			check("PPJoin", pairs)
			if pairs, _ = AllPairsRS(sets[:1], sets[1:], c.lambda, nil); !slices.Equal(pairs, []Pair{{A: 0, B: 0}}) {
				t.Errorf("AllPairsRS at λ = %v: %v, want [{0 0}]", c.lambda, pairs)
			}
			check("BruteForce", BruteForce(sets, c.lambda))
			pairs, _ = CPSJoin(sets, c.lambda, &Options{SketchWords: -1, Seed: 1})
			check("CPSJoin without sketches", pairs)

			found := func(ms []Match) bool {
				return slices.ContainsFunc(ms, func(m Match) bool { return m.ID == 1 && m.Sim == c.lambda })
			}
			if !found(NewSearchIndex(sets, c.lambda, nil).QueryAll(sets[0])) {
				t.Errorf("search at λ = %v misses x", c.lambda)
			}
			if !found(NewShardedIndex(sets, c.lambda, nil).QueryBatch([][]uint32{sets[0]})[0]) {
				t.Errorf("sharded query at λ = %v misses x", c.lambda)
			}
		})
	}
}
