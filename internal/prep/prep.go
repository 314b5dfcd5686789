// Package prep builds the shared preprocessing state of the approximate
// join algorithms: MinHash signatures and 1-bit minwise sketches.
//
// The paper's experiments do not count preprocessing towards join time,
// because the embedding and sketches of a collection are computed once and
// reused across joins at different thresholds (Section VI: "the
// preprocessing step of the approximate methods only has to be performed
// once for each set and similarity measure"). This package makes that
// factoring explicit: build an Index once, run many joins against it.
//
// The signature matrix is position-major (T × n), the one layout every join
// reads: a Chosen Path node is split on one position, so its ascending ids
// walk one contiguous column forward instead of fetching one cache line per
// member from a row-major matrix, and MinHash LSH builds its bucket keys a
// column at a time. The build signs each set into a row buffer and
// scatters the row into the T columns (minhash.Signer.SignColumns); there
// is no transpose pass and no second matrix.
//
// An Index persists into the repository's snapshot container (io.go has the
// section layout), because every later join at another threshold is a new
// process that pays the load. Load therefore maps the file, locates the
// sections by their headers (snapshot.OpenMapped), checksums each payload
// once — the only full read — and uses the two fixed-width matrices, nearly
// all of the file, where they lie (snapshot.View); only the small sets
// section is decoded, through the validating cursor. The writer hands the
// matrices' own bytes to the container.
package prep

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/minhash"
	"repro/internal/mmap"
	"repro/internal/sketch"
)

// Index is the preprocessed form of a collection.
type Index struct {
	// Sets is the underlying collection (not copied).
	Sets [][]uint32
	// T is the MinHash signature length; Sigs is the T×n signature matrix,
	// position-major: set i's value at position p is Sigs[p*n+i], so a
	// position over the collection is one contiguous column (see
	// minhash.Signer.SignAll).
	T    int
	Sigs []uint32
	// Words is the sketch width in 64-bit words (0 = no sketches);
	// Sketches is the flattened n×Words sketch matrix.
	Words    int
	Sketches []uint64
	// Seed is the randomness the index was built with.
	Seed uint64

	// file is what Load mapped: Sigs and Sketches point into it, and it
	// unmaps once it is unreachable, so they must not outlive the Index.
	file *mmap.File
}

// Build preprocesses a collection: t-dimensional MinHash signatures and,
// if words > 0, 1-bit minwise sketches of the given width.
func Build(sets [][]uint32, t, words int, seed uint64) *Index {
	return BuildParallel(sets, t, words, seed, 1)
}

// BuildParallel is Build with the per-set hashing spread across the given
// number of workers on the shared execution layer. The hash functions are
// fixed by the seed and each set's signature values and sketch land in
// preallocated slots of their own, so the result is byte-identical to the
// sequential Build for any worker count.
func BuildParallel(sets [][]uint32, t, words int, seed uint64, workers int) *Index {
	if t <= 0 {
		panic(fmt.Sprintf("prep: invalid signature length %d", t))
	}
	ix := &Index{Sets: sets, T: t, Seed: seed}
	signer := minhash.NewSigner(t, seed)
	ix.Sigs = make([]uint32, len(sets)*t)
	var maker *sketch.Maker
	if words > 0 {
		ix.Words = words
		maker = sketch.NewMaker(words, seed+0x51ee7c)
		ix.Sketches = make([]uint64, len(sets)*words)
	}
	// One hash family at a time over the range, so that the signer's and
	// the maker's tables (1 MB and 2 MB) do not evict each other per set.
	sign := func(lo, hi int) {
		signer.SignColumns(sets, lo, hi, ix.Sigs)
		if maker == nil {
			return
		}
		for i := lo; i < hi; i++ {
			maker.SketchInto(sets[i], ix.Sketches[i*words:(i+1)*words])
		}
	}
	// Sets per task: about 0.35 ms of hashing on ten-token sets (≈ 1.4 µs
	// a set on one core of a 2-vCPU Xeon with AVX-512, about half of it
	// signing), long enough to amortize scheduling (and, per task, the
	// switch from one hash family to the other), short enough that a chunk
	// of large sets does not leave the other workers idle at the end.
	const chunk = 256
	exec.RunChunks(workers, len(sets), chunk, func(c *exec.Ctx, lo, hi int) { sign(lo, hi) })
	return ix
}

// Sketch returns the sketch of set i; it panics if sketches are disabled.
func (ix *Index) Sketch(i int) []uint64 {
	if ix.Words == 0 {
		panic("prep: index built without sketches")
	}
	return ix.Sketches[i*ix.Words : (i+1)*ix.Words]
}
