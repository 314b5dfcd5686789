package prep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

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
//	sets      set sizes as varints, then all tokens (uint32, LE)
//	sigs      the flattened n×T signature matrix
//	sketches  the flattened n×Words sketch matrix (present iff Words > 0)
//
// The sets themselves are stored so a loaded index is self-contained:
// the joins verify candidates against the exact token lists.

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
// yields a descriptive error wrapping ErrCorrupt, never a panic.
func ReadFrom(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// Load reads an index from a file.
func Load(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
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
	want := []string{"meta", "sets", "sigs", "sketches"}
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
	sc := snapshot.NewCursor("sets", raw)
	ix.Sets = snapshot.DecodeSets(sc, n)
	if err := sc.Done(); err != nil {
		return nil, err
	}

	// The matrix sections are fixed-width, so their element counts are
	// implied by the header; check the payload is exactly that long
	// BEFORE allocating, so a corrupt header can never drive a huge
	// allocation from a small file.
	raw, err = m.Section("sigs")
	if err != nil {
		return nil, err
	}
	if want := n * uint64(t) * 4; uint64(len(raw)) != want {
		return nil, fmt.Errorf("section \"sigs\" has %d bytes, want %d", len(raw), want)
	}
	ix.Sigs = make([]uint32, len(raw)/4)
	for i := range ix.Sigs {
		ix.Sigs[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}

	if words > 0 {
		raw, err = m.Section("sketches")
		if err != nil {
			return nil, err
		}
		if want := n * uint64(words) * 8; uint64(len(raw)) != want {
			return nil, fmt.Errorf("section \"sketches\" has %d bytes, want %d", len(raw), want)
		}
		ix.Sketches = make([]uint64, len(raw)/8)
		for i := range ix.Sketches {
			ix.Sketches[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
	}
	return ix, nil
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
	var sets snapshot.Buf
	snapshot.EncodeSets(&sets, ix.Sets)
	if err := w.Section("sets", sets.B); err != nil {
		return err
	}
	sigs := make([]byte, 4*len(ix.Sigs))
	for i, s := range ix.Sigs {
		binary.LittleEndian.PutUint32(sigs[4*i:], s)
	}
	if err := w.Section("sigs", sigs); err != nil {
		return err
	}
	if ix.Words > 0 {
		sk := make([]byte, 8*len(ix.Sketches))
		for i, s := range ix.Sketches {
			binary.LittleEndian.PutUint64(sk[8*i:], s)
		}
		return w.Section("sketches", sk)
	}
	return nil
}
