package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/stats"
)

func TestBBAtLeastMatchesDirect(t *testing.T) {
	ds := datagen.Uniform(100, 15, 50, 31)
	sets := ds.Sets
	for _, lambda := range []float64{0.3, 0.5, 0.7, 0.9} {
		for i := 0; i < len(sets); i++ {
			for k := i + 1; k < len(sets); k++ {
				want := intset.BraunBlanquet(sets[i], sets[k]) >= lambda
				if got := intset.BraunBlanquetAtLeast(sets[i], sets[k], lambda); got != want {
					t.Fatalf("BraunBlanquetAtLeast(%v) = %v, want %v (BB=%v)",
						lambda, got, want, intset.BraunBlanquet(sets[i], sets[k]))
				}
			}
		}
	}
}

func TestJoinBBPrecision(t *testing.T) {
	ds := datagen.Uniform(500, 20, 4000, 32)
	datagen.PlantPairs(ds, 25, 0.7, 33)
	got, _ := JoinBB(ds.Sets, 0.5, &BBOptions{Seed: 1})
	for _, p := range got {
		if bb := intset.BraunBlanquet(ds.Sets[p.A], ds.Sets[p.B]); bb < 0.5 {
			t.Fatalf("false positive (%d,%d) BB=%v", p.A, p.B, bb)
		}
	}
}

func TestJoinBBRecall(t *testing.T) {
	ds := datagen.Uniform(500, 20, 4000, 34)
	datagen.PlantPairs(ds, 20, 0.6, 35)
	datagen.PlantPairs(ds, 20, 0.85, 36)
	for _, lambda := range []float64{0.5, 0.7} {
		truth := BruteForceJoinBB(ds.Sets, lambda)
		if len(truth) == 0 {
			t.Fatalf("no BB ground truth at λ=%v", lambda)
		}
		got, _ := JoinBB(ds.Sets, lambda, &BBOptions{Seed: 2})
		if r := stats.Recall(got, truth); r < 0.9 {
			t.Errorf("λ=%v: BB recall %v < 0.9 (%d/%d)", lambda, r, len(got), len(truth))
		}
	}
}

// TestJoinBBVariableSizes exercises the generalization beyond the paper's
// fixed-size setting: collections with wildly varying set sizes.
func TestJoinBBVariableSizes(t *testing.T) {
	var sets [][]uint32
	// Small sets contained in big sets: BB = |small|/|big|.
	base := make([]uint32, 0, 100)
	for i := uint32(0); i < 100; i++ {
		base = append(base, i)
	}
	sets = append(sets, base)                    // 0: {0..99}
	sets = append(sets, base[:60])               // 1: BB(0,1) = 0.6
	sets = append(sets, base[:30])               // 2: BB(0,2) = 0.3, BB(1,2) = 0.5
	sets = append(sets, []uint32{200, 201, 202}) // 3: unrelated
	// Pad with noise so the collection is non-trivial.
	noise := datagen.Uniform(300, 10, 100000, 37)
	sets = append(sets, noise.Sets...)

	got, _ := JoinBB(sets, 0.55, &BBOptions{Seed: 3, Repetitions: 20})
	found := false
	for _, p := range got {
		if p.A == 0 && p.B == 1 {
			found = true
		}
		if bb := intset.BraunBlanquet(sets[p.A], sets[p.B]); bb < 0.55 {
			t.Fatalf("false positive BB=%v", bb)
		}
	}
	if !found {
		t.Error("missed the contained-set pair (0,1) with BB=0.6")
	}
}

// TestJoinBBAgreesWithEmbeddedOnFixedSize: on a fixed-size collection,
// Braun-Blanquet and the embedded Jaccard join target the same pairs (for
// equal-size sets, BB >= λ ⇔ J >= λ/(2-λ)), so the reference and the
// optimized implementation can be cross-checked.
func TestJoinBBAgreesWithEmbeddedOnFixedSize(t *testing.T) {
	// Build sets of exactly size 24.
	ds := datagen.Uniform(400, 24, 8000, 38)
	var sets [][]uint32
	for _, s := range ds.Sets {
		if len(s) == 24 {
			sets = append(sets, s)
		}
	}
	if len(sets) < 100 {
		t.Skip("not enough fixed-size sets")
	}
	const bbLambda = 0.6
	jLambda := bbLambda / (2 - bbLambda)
	truthBB := BruteForceJoinBB(sets, bbLambda)
	truthJ := make(map[uint64]bool)
	for i := 0; i < len(sets); i++ {
		for k := i + 1; k < len(sets); k++ {
			if intset.Jaccard(sets[i], sets[k]) >= jLambda-1e-12 {
				truthJ[uint64(i)<<32|uint64(k)] = true
			}
		}
	}
	if len(truthBB) != len(truthJ) {
		t.Fatalf("BB and converted-Jaccard ground truths differ: %d vs %d",
			len(truthBB), len(truthJ))
	}
	for _, p := range truthBB {
		if !truthJ[uint64(p.A)<<32|uint64(p.B)] {
			t.Fatalf("pair %v in BB truth but not J truth", p)
		}
	}
}

func TestJoinBBTinyInputs(t *testing.T) {
	if got, _ := JoinBB(nil, 0.5, nil); got != nil {
		t.Error("JoinBB(nil) returned pairs")
	}
	got, _ := JoinBB([][]uint32{{1, 2, 3}, {1, 2, 3}}, 0.9, &BBOptions{Seed: 4})
	if len(got) != 1 {
		t.Errorf("identical pair not found: %v", got)
	}
}

func TestJoinBBInvalidLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for lambda=0")
		}
	}()
	JoinBB([][]uint32{{1}, {2}}, 0, nil)
}
