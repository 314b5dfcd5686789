package snapshot

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/intset"
)

// Native fuzz targets for the two decode surfaces of the persistence
// layer: the binary container and the JSON directory manifest. Both are
// fed snapshot bytes an attacker (or a failing disk) controls, and the
// contract under fuzzing is the load-path promise stated in the package
// doc: descriptive errors wrapping ErrCorrupt/ErrVersion — never a
// panic, hang or huge allocation. CI runs each target for a few seconds
// per PR (make fuzz-smoke); the corpus seeds below are valid snapshots,
// so mutation starts from the interesting region of the input space.

// validContainer builds a well-formed two-section container to seed the
// corpus.
func validContainer(t testing.TB) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "fuzzkind")
	if err != nil {
		t.Fatal(err)
	}
	var meta Buf
	meta.F64(0.5)
	meta.U32(2) // set count
	meta.Uvarint(99)
	if err := w.Section("meta", meta.B); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("sets", EncodeSets([][]uint32{{1, 2, 3}, {2, 5}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzContainer(f *testing.F) {
	valid := validContainer(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncation
	f.Add([]byte("CPSNAP\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := OpenMapped(data, "fuzzkind")
		if err != nil {
			return
		}
		for _, s := range m.Sections() {
			if s.Off%8 != 0 || s.Off < 0 || s.Len < 0 || s.Off+s.Len > int64(len(data)) {
				t.Fatalf("section %q indexed at [%d, %d+%d) of %d bytes", s.Name, s.Off, s.Off, s.Len, len(data))
			}
		}
		meta, err := m.Section("meta")
		if err != nil {
			return
		}
		c := NewCursor("meta", meta)
		c.F64()
		n := c.U32()
		c.Uvarint()
		_ = c.Done()
		raw, err := m.Section("sets")
		if err != nil {
			return
		}
		sets, err := ReadSets(raw, uint64(n))
		if err != nil {
			return
		}
		// Whatever the reader accepts is the collection the payload encodes:
		// the layout is canonical (minimal varints, zero padding, exact length).
		if len(sets) != int(n) || !bytes.Equal(EncodeSets(sets), raw) {
			t.Fatalf("ReadSets accepted %v for %d sets from %x", sets, n, raw)
		}
		for i, set := range sets {
			if !intset.IsSet(set) {
				t.Fatalf("ReadSets accepted set %d = %v", i, set)
			}
		}
	})
}

func FuzzManifest(f *testing.F) {
	var dropped intset.Bitmap
	dropped.Set(2)
	m := &Manifest{
		FormatVersion:  Version,
		Lambda:         0.5,
		Partition:      "contiguous",
		PrimaryShards:  2,
		MergeThreshold: 16,
		Trees:          2,
		LeafSize:       32,
		T:              128,
		Seed:           42,
		NextSlot:       3,
		Total:          5,
		Shards:         []ShardEntry{{File: "shard-g000001-0000.cps", Seed: 7, Sets: 3}},
		Side:           SideState{IDs: []int{3, 4}, Sets: [][]uint32{{1, 2}, {2, 9}}},
		Tombstones:     []int{1},
		DroppedBitmap:  dropped.Bytes(),
	}
	seed, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"format_version":3,"lambda":0.5}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(ManifestFile, data)
		if err != nil {
			return
		}
		// Whatever validated must honor the invariants the loaders rely on.
		if m.Lambda <= 0 || m.Lambda >= 1 {
			t.Fatalf("ReadManifest accepted lambda %v", m.Lambda)
		}
		if len(m.Side.IDs) != len(m.Side.Sets) {
			t.Fatalf("ReadManifest accepted mismatched side shard (%d ids, %d sets)",
				len(m.Side.IDs), len(m.Side.Sets))
		}
		for _, id := range append(append(append([]int{}, m.Tombstones...), m.DroppedIDs().Ints()...), m.Side.IDs...) {
			if id < 0 || id >= m.Total {
				t.Fatalf("ReadManifest accepted id %d out of [0,%d)", id, m.Total)
			}
		}
	})
}
