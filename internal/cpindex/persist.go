package cpindex

import (
	"fmt"
	"io"
	"math"

	"repro/internal/minhash"
	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// Snapshot support: a built Index is static — randomized tries over an
// immutable collection — so it serializes into the shared snapshot
// container and loads back in I/O time instead of rebuild time. Three
// sections:
//
//	meta   lambda, options, structure stats, set count
//	sets   the collection (snapshot.EncodeSets: sizes, padding, tokens)
//	trees  the trie's arrays, fixed-width little-endian (see trie.encode)
//
// The MinHash signer is not stored: it is a pure function of (T, Seed)
// and is reconstructed on load. The build-time signature matrix is not
// stored either — queries sign only the query set — so a loaded index
// answers Query/QueryAll byte-identically to the original while the
// snapshot stays proportional to sets + tries.

// SnapshotKind tags a standalone cpindex container; embedders (the shard
// package) use their own kind and splice the sections in via
// EncodeSections/OpenMapped.
const SnapshotKind = "cpindex"

// maxSets bounds the plausible collection size on load.
const maxSets = 1 << 31

// Encode serializes the index as one snapshot container.
func (ix *Index) Encode(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, SnapshotKind)
	if err != nil {
		return err
	}
	if err := ix.EncodeSections(sw); err != nil {
		return err
	}
	return sw.Flush()
}

// Decode deserializes an index written by Encode, validating every
// structural invariant: a corrupt or truncated snapshot yields a
// descriptive error, never a panic or a silently wrong index.
func Decode(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeContainer(data)
}

// decodeContainer opens the mapped view over a complete container and
// moves its collection to the heap — the only decode path there is.
func decodeContainer(data []byte) (*Index, error) {
	snap, err := snapshot.OpenMapped(data, SnapshotKind)
	if err != nil {
		return nil, err
	}
	m, err := OpenMapped(snap, nil)
	if err != nil {
		return nil, err
	}
	return m.Index()
}

// Save writes the index to path atomically.
func (ix *Index) Save(path string) error {
	return snapshot.WriteFile(path, SnapshotKind, ix.EncodeSections)
}

// Load reads an index saved by Save.
func Load(path string) (*Index, error) {
	f, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the decoded index references no container bytes
	ix, err := decodeContainer(f.Data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// EncodeSections writes the index's sections into an open container.
func (ix *Index) EncodeSections(w *snapshot.Writer) error {
	var meta snapshot.Buf
	meta.F64(ix.lambda)
	meta.U32(uint32(ix.opt.T))
	meta.U32(uint32(ix.opt.LeafSize))
	meta.U32(uint32(ix.opt.MaxDepth))
	meta.U32(uint32(ix.opt.Trees))
	meta.U64(ix.opt.Seed)
	meta.U64(uint64(ix.Nodes))
	meta.U64(uint64(ix.Leaves))
	meta.U64(uint64(len(ix.sets)))
	if err := w.Section("meta", meta.B); err != nil {
		return err
	}

	if err := w.Section("sets", snapshot.EncodeSets(ix.sets)); err != nil {
		return err
	}
	return w.Section("trees", ix.trie.encode())
}

// decodeMeta reads the meta section into a kernel that has no trie and no
// collection yet, plus the persisted structure counts.
func decodeMeta(payload []byte) (k *kernel, nodes, leaves int, err error) {
	meta := snapshot.NewCursor("meta", payload)
	lambda := meta.F64()
	opt := Options{
		T:        int(meta.U32()),
		LeafSize: int(meta.U32()),
		MaxDepth: int(meta.U32()),
		Trees:    int(meta.U32()),
		Seed:     meta.U64(),
	}
	nnodes := meta.U64()
	nleaves := meta.U64()
	nsets := meta.U64()
	if err := meta.Done(); err != nil {
		return nil, 0, 0, err
	}
	if lambda <= 0 || lambda >= 1 {
		return nil, 0, 0, fmt.Errorf("%w: lambda %v out of (0,1)", snapshot.ErrCorrupt, lambda)
	}
	if opt.T <= 0 || opt.T > 1<<20 || opt.LeafSize <= 0 ||
		opt.MaxDepth <= 0 || opt.MaxDepth > 1<<16 ||
		opt.Trees <= 0 || opt.Trees > 1<<16 || nsets > maxSets ||
		nnodes > math.MaxInt32 || nleaves > nnodes {
		return nil, 0, 0, fmt.Errorf("%w: implausible index meta (T=%d leaf=%d depth=%d trees=%d sets=%d nodes=%d leaves=%d)",
			snapshot.ErrCorrupt, opt.T, opt.LeafSize, opt.MaxDepth, opt.Trees, nsets, nnodes, nleaves)
	}
	return &kernel{
		lambda: lambda,
		opt:    opt,
		nsets:  int(nsets),
		signer: minhash.NewSigner(opt.T, opt.Seed),
	}, int(nnodes), int(nleaves), nil
}
