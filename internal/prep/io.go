package prep

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// Persistence: preprocessing a large collection costs a full hashing
// pass per record, so production deployments persist the index beside
// the data and reload it across joins (the paper's "preprocessing only
// has to be performed once" measured in practice).
//
// The index serializes into the repository-wide snapshot container
// (magic, format version, per-section CRC-32C — see internal/snapshot)
// under kind "prepidx", with sections:
//
//	meta      seed, set count, signature length, sketch width
//	sets      snapshot.EncodeSets: set sizes as varints, padding, then all
//	          tokens (uint32, LE)
//	sigcols   the T×n signature matrix, position-major: set i's value at
//	          position p is element p*n+i (uint32, LE)
//	sketches  the flattened n×Words sketch matrix (present iff Words > 0)
//
// The signature section was "sigs" while the matrix was row-major (n×T). A
// row-major matrix is exactly as long as a position-major one, so an older
// file would load without complaint and join on the wrong values; under the
// new name it fails the exact-section check with ErrCorrupt instead. The
// container version is not bumped for it: it is shared with the shard
// snapshots, whose bytes did not change.
//
// The sets themselves are stored so a loaded index is self-contained:
// the joins verify candidates against the exact token lists.
//
// Neither direction copies a matrix: loading checksums every section once
// (the only full read), copies the small sets section out of it and hands
// out the two matrices as snapshot.View over the container bytes; saving
// hands the writer snapshot.Bytes of the two slices.

// snapshotKind tags a prep index container.
const snapshotKind = "prepidx"

// ErrCorrupt is wrapped by every validation failure when loading an
// on-disk index (including container-level corruption and version
// mismatches, which also wrap snapshot.ErrCorrupt/ErrVersion).
var ErrCorrupt = errors.New("prep: corrupt index file")

// WriteTo serializes the index. It returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	sw, err := snapshot.NewWriter(w, snapshotKind)
	if err != nil {
		return 0, err
	}
	if err := ix.writeSections(sw); err != nil {
		return sw.Count(), err
	}
	return sw.Count(), sw.Flush()
}

// ReadFrom deserializes an index written by WriteTo. Corruption —
// truncation, flipped bytes, wrong format version, implausible headers —
// yields a descriptive error wrapping ErrCorrupt, never a panic. The
// matrices are views over the bytes read, which stay on the heap with them.
func ReadFrom(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// Load maps an index file (reads it onto the heap where mmap.Supported is
// false) and validates all of it, as ReadFrom does. The index is read-only:
// Sigs and Sketches are views over the mapping, so a write through them
// faults, and they are valid only while the *Index, which owns the mapping,
// is reachable. Sets are heap copies and outlive it.
func Load(path string) (*Index, error) {
	f, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := decode(f.Data)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ix.file = f
	return ix, nil
}

// decode parses a complete container, wrapping every failure in ErrCorrupt.
func decode(data []byte) (*Index, error) {
	ix, err := decodeSections(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return ix, nil
}

func decodeSections(data []byte) (*Index, error) {
	m, err := snapshot.OpenMapped(data, snapshotKind)
	if err != nil {
		return nil, err
	}
	raw, err := m.Section("meta")
	if err != nil {
		return nil, err
	}
	meta := snapshot.NewCursor("meta", raw)
	seed := meta.U64()
	n := meta.U64()
	t := meta.U32()
	words := meta.U32()
	if err := meta.Done(); err != nil {
		return nil, err
	}
	const maxSets = 1 << 31
	if n > maxSets || t == 0 || t > 1<<20 || words > 1<<16 {
		return nil, fmt.Errorf("implausible header (n=%d t=%d words=%d)", n, t, words)
	}
	ix := &Index{Seed: seed, T: int(t), Words: int(words)}

	// Exactly the sections WriteTo emits, in its order: anything else would
	// load into an index that no longer serializes to the bytes it came from.
	want := []string{"meta", "sets", "sigcols", "sketches"}
	if words == 0 {
		want = want[:3]
	}
	var got []string
	for _, s := range m.Sections() {
		got = append(got, s.Name)
	}
	if !slices.Equal(got, want) {
		return nil, fmt.Errorf("sections %q, want %q", got, want)
	}

	raw, err = m.Section("sets")
	if err != nil {
		return nil, err
	}
	view, err := snapshot.ReadSets(raw, n)
	if err != nil {
		return nil, err
	}
	ix.Sets = snapshot.CloneSets(view) // Sets outlive the mapping, see Load

	// The matrix sections are fixed-width, so their element counts are
	// implied by the header: the payload must be exactly that long, so a
	// corrupt header can never yield a matrix the bytes do not back.
	if raw, err = matrix(m, "sigcols", n*uint64(t)*4); err != nil {
		return nil, err
	}
	ix.Sigs = snapshot.View[uint32](raw)
	if words > 0 {
		if raw, err = matrix(m, "sketches", n*uint64(words)*8); err != nil {
			return nil, err
		}
		ix.Sketches = snapshot.View[uint64](raw)
	}
	return ix, nil
}

// matrix returns a checksummed section that must be exactly want bytes.
func matrix(m *snapshot.Mapped, name string, want uint64) ([]byte, error) {
	raw, err := m.Section(name)
	if err == nil && uint64(len(raw)) != want {
		err = fmt.Errorf("section %q has %d bytes, want %d", name, len(raw), want)
	}
	return raw, err
}

// Save writes the index to a file atomically (temp file + rename).
func (ix *Index) Save(path string) error {
	return snapshot.WriteFile(path, snapshotKind, ix.writeSections)
}

// writeSections mirrors WriteTo against an already-open container writer.
func (ix *Index) writeSections(w *snapshot.Writer) error {
	var meta snapshot.Buf
	meta.U64(ix.Seed)
	meta.U64(uint64(len(ix.Sets)))
	meta.U32(uint32(ix.T))
	meta.U32(uint32(ix.Words))
	if err := w.Section("meta", meta.B); err != nil {
		return err
	}
	if err := w.Section("sets", snapshot.EncodeSets(ix.Sets)); err != nil {
		return err
	}
	if err := w.Section("sigcols", snapshot.Bytes(ix.Sigs)); err != nil {
		return err
	}
	if ix.Words > 0 {
		return w.Section("sketches", snapshot.Bytes(ix.Sketches))
	}
	return nil
}
