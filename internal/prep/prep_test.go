package prep

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/minhash"
)

func TestBuildShape(t *testing.T) {
	sets := datagen.Uniform(50, 10, 500, 1).Sets
	ix := Build(sets, 64, 4, 7)
	if len(ix.Sigs) != 50*64 {
		t.Fatalf("sigs length %d", len(ix.Sigs))
	}
	if len(ix.Sketches) != 50*4 {
		t.Fatalf("sketches length %d", len(ix.Sketches))
	}
	if len(ix.Sketch(3)) != 4 {
		t.Fatal("accessor length wrong")
	}
}

// TestSigsArePositionMajor: position p of set i is Sigs[p*n+i], the value
// minhash.Signer.Sign gives it, whichever worker count built the matrix.
func TestSigsArePositionMajor(t *testing.T) {
	sets := datagen.Uniform(700, 10, 500, 4).Sets // several 256-set chunks
	const T, seed = 24, 11
	signer := minhash.NewSigner(T, seed)
	n := len(sets)
	for _, workers := range []int{1, 2, 4} {
		ix := BuildParallel(sets, T, 1, seed, workers)
		for i, set := range sets {
			for p, want := range signer.Sign(set) {
				if got := ix.Sigs[p*n+i]; got != want {
					t.Fatalf("workers=%d: Sigs[%d*n+%d] = %d, Sign gives %d", workers, p, i, got, want)
				}
			}
		}
	}
}

func TestBuildWithoutSketches(t *testing.T) {
	sets := datagen.Uniform(20, 10, 500, 2).Sets
	ix := Build(sets, 32, 0, 7)
	if ix.Words != 0 || ix.Sketches != nil {
		t.Fatal("sketches built despite words=0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Sketch() on sketchless index did not panic")
		}
	}()
	ix.Sketch(0)
}

// TestBuildDeterministic: the hash functions are fixed by the seed and every
// set writes only its own slots, so the index is the same whichever worker
// count — and so whichever chunk schedule — built it.
func TestBuildDeterministic(t *testing.T) {
	sets := datagen.Uniform(700, 10, 500, 3).Sets // several 256-set chunks
	want := Build(sets, 16, 2, 9)
	for _, workers := range []int{1, 2, 4} {
		got := BuildParallel(sets, 16, 2, 9, workers)
		if !slices.Equal(got.Sigs, want.Sigs) {
			t.Errorf("workers=%d: signatures differ from the sequential build", workers)
		}
		if !slices.Equal(got.Sketches, want.Sketches) {
			t.Errorf("workers=%d: sketches differ from the sequential build", workers)
		}
	}
}

func TestBuildInvalidT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build with t=0 did not panic")
		}
	}()
	Build(nil, 0, 0, 1)
}
