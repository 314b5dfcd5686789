package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tabhash"
)

func init() {
	popcnt := withinPath{name: "popcnt", f: withinPOPCNT}
	if !hasPOPCNT() {
		popcnt.skip = "this CPU has no POPCNT"
	}
	avx512 := withinPath{name: "avx512", f: withinAVX512}
	if !tabhash.HasVPOPCNTDQ() {
		avx512.skip = "this CPU has no AVX-512 with VPOPCNTQ"
	}
	withinPaths = append(withinPaths, popcnt, avx512)
}

// TestWithinPathsAgree runs each of within's paths this CPU has — withinGo,
// withinPOPCNT and withinAVX512, a subtest each, skipped with a message
// where the CPU lacks the instructions — against sketch.Hamming, at strides
// of one, two and three 8-word blocks and every bound from −1 (Near's at
// bound 0) to one past the widest distance, so on both sides of headCut.
// The rows are random, all zero, or a fixed number of bits from the row: 0
// to 255 bits in the first four words, which puts rows one bit under, on
// and one bit over every early exit, and one bit under, on and over each
// bound spread over the whole row. Row counts are 0, 1 to 7 and 9 (a
// partial last group of eight, alone or after a whole one), 255 and 256, a
// tile.
func TestWithinPathsAgree(t *testing.T) {
	for _, path := range withinPaths {
		t.Run(path.name, func(t *testing.T) {
			if path.skip != "" {
				t.Skip(path.skip)
			}
			checkWithinPath(t, path)
		})
	}
}

func checkWithinPath(t *testing.T, path withinPath) {
	rng := rand.New(rand.NewSource(11))
	for _, stride := range []int{8, 16, 24} {
		width := 64 * stride
		row := randomWords(rng, stride)
		flipped := func(k, span int) []uint64 {
			o := slices.Clone(row)
			for _, bit := range rng.Perm(span)[:k] {
				o[bit/64] ^= 1 << (bit % 64)
			}
			return o
		}
		var head []uint64 // row i is i bits away, all of them in the first four words
		for k := range blockRows {
			head = append(head, flipped(k, headBits)...)
		}
		kinds := map[string][]uint64{
			"random": randomWords(rng, blockRows*stride),
			"zero":   make([]uint64, blockRows*stride),
			"head":   head,
		}
		for maxHam := -1; maxHam <= width+1; maxHam++ {
			for name, rows := range kinds {
				for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, blockRows - 1, blockRows} {
					checkWithinRows(t, path, fmt.Sprintf("stride %d %s n=%d", stride, name, n), row, rows[:n*stride], maxHam)
				}
			}
			var near []uint64
			for k := max(0, maxHam-1); k <= min(width, maxHam+1); k++ {
				near = append(near, flipped(k, width)...)
			}
			checkWithinRows(t, path, fmt.Sprintf("stride %d around the bound", stride), row, near, maxHam)
		}
	}
}

// checkWithinRows requires the path to pick exactly the rows at most maxHam
// bits from row, given the exit within would give them and given none, so
// that every row reaches the comparison with maxHam.
func checkWithinRows(t *testing.T, path withinPath, name string, row, rows []uint64, maxHam int) {
	t.Helper()
	want := withinRef(row, rows, maxHam)
	hits := make([]int32, len(rows)/len(row))
	for _, head := range []int{headBound(maxHam), headBits} {
		if got := hits[:path.f(row, rows, maxHam, head, hits)]; !slices.Equal(got, want) {
			t.Fatalf("%s, maxHam %d, exit over %d: %s picks rows %v, want %v", name, maxHam, head, path.name, got, want)
		}
	}
}
