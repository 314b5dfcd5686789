package verify

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sketch"
)

// TestNearMatchesHamming runs the stopping rule's pass over more points than
// one tile, at sketch widths padded to one and to two 8-word blocks and at
// bounds from 0 to past the widest distance, and requires exactly the ids
// fewer than bound bits from the center, in input order.
func TestNearMatchesHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2*blockRows + 7
	for _, words := range []int{1, 3, 8, 16} {
		center := make([]uint64, words)
		for i := range center {
			center[i] = rng.Uint64()
		}
		sketches := make([]uint64, 0, n*words)
		for range n {
			sk := slices.Clone(center)
			for _, bit := range rng.Perm(64 * words)[:rng.Intn(64*words+1)] {
				sk[bit/64] ^= 1 << (bit % 64)
			}
			sketches = append(sketches, sk...)
		}
		p := NewPipeline(make([][]uint32, n), 0.5, 1)
		p.Words, p.Sketches = words, sketches
		s := p.NewScratches(1)[0]
		var ids []uint32
		for id := range n {
			if rng.Intn(3) > 0 {
				ids = append(ids, uint32(id))
			}
		}
		for _, bound := range []int{0, 1, 17, 32 * words, 32*words + 1, 64 * words, 64*words + 1} {
			var want []uint32
			for _, id := range ids {
				if sketch.Hamming(sketches[int(id)*words:][:words], center) < bound {
					want = append(want, id)
				}
			}
			if got := s.Near(ids, center, bound, nil); !slices.Equal(got, want) {
				t.Errorf("W=%d bound %d: Near returns %d ids, %d are fewer bits away, or not the same ones", words, bound, len(got), len(want))
			}
		}
	}
}
