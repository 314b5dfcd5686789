package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func writeContainer(t *testing.T, kind string, sections map[string][]byte, order []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := w.Section(name, sections[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(buf.Len()) {
		t.Fatalf("Count() = %d, wrote %d bytes", w.Count(), buf.Len())
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	sections := map[string][]byte{
		"meta":  {1, 2, 3},
		"bulk":  bytes.Repeat([]byte{0xab}, 10_000),
		"empty": {},
	}
	order := []string{"meta", "bulk", "empty"}
	raw := writeContainer(t, "testkind", sections, order)
	m, err := OpenMapped(raw, "testkind")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sections()) != len(order) {
		t.Fatalf("%d sections indexed, wrote %d", len(m.Sections()), len(order))
	}
	for i, name := range order {
		if s := m.Sections()[i]; s.Name != name || s.Off%8 != 0 {
			t.Errorf("section %d is %q at offset %d, want %q 8-aligned", i, s.Name, s.Off, name)
		}
		got, err := m.Section(name)
		if err != nil {
			t.Fatalf("section %q: %v", name, err)
		}
		if !bytes.Equal(got, sections[name]) {
			t.Fatalf("section %q: payload mismatch", name)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	raw := writeContainer(t, "kindA", map[string][]byte{"s": {1}}, []string{"s"})

	// Wrong kind.
	if _, err := OpenMapped(raw, "kindB"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong kind: err = %v, want ErrCorrupt", err)
	}

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := OpenMapped(bad, "kindA"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// Wrong version: must name both versions in the message.
	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[8:12], 99)
	_, err := OpenMapped(bad, "kindA")
	if !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
	if err == nil || !strings.Contains(err.Error(), "99") {
		t.Errorf("version error %q does not name the file's version", err)
	}

	// Truncated header.
	if _, err := OpenMapped(raw[:10], "kindA"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated header: err = %v, want ErrCorrupt", err)
	}
}

func TestSectionCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 500)
	raw := writeContainer(t, "k", map[string][]byte{"data": payload}, []string{"data"})

	read := func(b []byte) error {
		m, err := OpenMapped(b, "k")
		if err != nil {
			return err
		}
		_, err = m.Section("data")
		return err
	}

	if err := read(raw); err != nil {
		t.Fatalf("pristine container failed: %v", err)
	}

	// Flip every byte position in turn: each must fail (header fields are
	// structurally validated, payload bytes by CRC).
	for pos := 20; pos < len(raw); pos += 13 {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if err := read(bad); err == nil {
			t.Errorf("flipped byte at %d not detected", pos)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flipped byte at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}

	// A second section behind a 3-byte payload starts after alignment
	// padding, which must be zero.
	two := writeContainer(t, "k", map[string][]byte{"a": {1, 2, 3}, "data": {4}}, []string{"a", "data"})
	padAt := 20 + sectionHdrLen + 3
	if sectionPad(int64(padAt)) == 0 || read(two) != nil {
		t.Fatalf("two-section container: pad %d, err %v", sectionPad(int64(padAt)), read(two))
	}
	two[padAt] = 1
	if err := read(two); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "padding") {
		t.Errorf("nonzero padding: err = %v, want ErrCorrupt naming the padding", err)
	}

	// Truncation at every prefix length must fail, never panic.
	for cut := 0; cut < len(raw); cut += 7 {
		if err := read(raw[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}

	// A section the container does not hold.
	m, err := OpenMapped(raw, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Section("other"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing section: err = %v, want ErrCorrupt", err)
	}
}

func TestHugeLengthOnTruncatedFile(t *testing.T) {
	raw := writeContainer(t, "k", map[string][]byte{"data": {1, 2, 3}}, []string{"data"})
	// Corrupt the section length field to claim an enormous payload: it
	// must be rejected against the bytes actually present.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[28:36], 1<<40)
	if _, err := OpenMapped(bad, "k"); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("huge length: err = %v, want ErrCorrupt naming the excess", err)
	}
}

func TestBufCursorRoundTrip(t *testing.T) {
	var b Buf
	b.U32(0xdeadbeef)
	b.U64(1 << 60)
	b.F64(0.625)
	b.Uvarint(300)
	b.Uvarint(0)

	c := NewCursor("t", b.B)
	if v := c.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %x", v)
	}
	if v := c.U64(); v != 1<<60 {
		t.Errorf("U64 = %x", v)
	}
	if v := c.F64(); v != 0.625 {
		t.Errorf("F64 = %v", v)
	}
	if v := c.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := c.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if err := c.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestCursorGuards(t *testing.T) {
	// Truncated read latches the error; later reads stay zero.
	c := NewCursor("t", []byte{1, 2})
	if v := c.U32(); v != 0 {
		t.Errorf("truncated U32 = %d", v)
	}
	if c.Err() == nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", c.Err())
	}
	if v := c.U64(); v != 0 {
		t.Errorf("post-error U64 = %d", v)
	}

	// Implausible count rejected both against max and remaining bytes.
	var b Buf
	b.Uvarint(1 << 40)
	c = NewCursor("t", b.B)
	if c.Count(100) != 0 || c.Err() == nil {
		t.Error("count above max accepted")
	}
	b = Buf{}
	b.Uvarint(50)
	c = NewCursor("t", b.B)
	if c.Count(1000) != 0 || c.Err() == nil {
		t.Error("count beyond remaining bytes accepted")
	}

	// A varint padded with a zero group decodes to the same value as the
	// minimal form; only the minimal form is accepted.
	for _, padded := range [][]byte{{0x80, 0x00}, {0x85, 0x80, 0x00}} {
		c = NewCursor("t", padded)
		if c.Uvarint(); !errors.Is(c.Err(), ErrCorrupt) {
			t.Errorf("padded varint %x accepted", padded)
		}
	}

	// Trailing bytes are an error from Done.
	c = NewCursor("t", []byte{1, 2, 3, 4, 5})
	c.U32()
	if err := c.Done(); err == nil {
		t.Error("trailing byte not reported")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.cps")

	// A failing encoder must leave no file behind.
	wantErr := errors.New("boom")
	err := WriteFile(path, "k", func(w *Writer) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("failed WriteFile left the target file")
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("failed WriteFile left temp files: %v", left)
	}

	// Both entry points fail cleanly on a target in a missing directory
	// (no temp file can be made) and on a target that is a directory (the
	// temp file is written and synced, and the rename fails).
	encode := func(w *Writer) error { return w.Section("s", []byte{1}) }
	busy := filepath.Join(dir, "busy")
	if err := os.Mkdir(busy, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{filepath.Join(dir, "missing", "x.cps"), busy} {
		for name, write := range map[string]func() error{
			"WriteFile":    func() error { return WriteFile(target, "k", encode) },
			"WriteRawFile": func() error { return WriteRawFile(target, []byte{1, 2, 3}) },
		} {
			if err := write(); err == nil {
				t.Fatalf("%s(%s) succeeded", name, target)
			}
			if _, statErr := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(statErr) {
				t.Fatalf("%s(%s) created the missing directory", name, target)
			}
			left, _ := os.ReadDir(dir)
			if len(left) != 1 || left[0].Name() != "busy" || !left[0].IsDir() {
				t.Fatalf("%s(%s) left files behind: %v", name, target, left)
			}
			if inside, _ := os.ReadDir(busy); len(inside) != 0 {
				t.Fatalf("%s(%s) wrote into the target directory: %v", name, target, inside)
			}
		}
	}
	if err := os.Remove(busy); err != nil {
		t.Fatal(err)
	}

	// Success round-trips through the file.
	if err := WriteFile(path, "k", func(w *Writer) error {
		return w.Section("s", []byte{9, 9})
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(raw, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("payload = %v", got)
	}
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		FormatVersion:  Version,
		Lambda:         0.5,
		Partition:      "contiguous",
		PrimaryShards:  4,
		MergeThreshold: 64,
		Trees:          10, LeafSize: 32, T: 128,
		Seed:     7,
		NextSlot: 5,
		Total:    100, Appends: 20, Merges: 1, Deletes: 2,
		Shards:     []ShardEntry{{File: "shard-0000.cps", Seed: 9, Sets: 50}},
		Side:       SideState{IDs: []int{98, 99}, Sets: [][]uint32{{1, 2}, {3}}},
		Tombstones: []int{3, 98},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 100 || got.NextSlot != 5 || len(got.Shards) != 1 || len(got.Tombstones) != 2 {
		t.Fatalf("manifest round trip changed fields: %+v", got)
	}

	corrupt := func(mutate func(*Manifest)) error {
		bad := *m
		bad.Side = SideState{
			IDs:  append([]int(nil), m.Side.IDs...),
			Sets: m.Side.Sets,
		}
		bad.Tombstones = append([]int(nil), m.Tombstones...)
		mutate(&bad)
		d := t.TempDir()
		if err := WriteManifest(d, &bad); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifest(d)
		return err
	}

	if err := corrupt(func(m *Manifest) { m.FormatVersion = 9 }); !errors.Is(err, ErrVersion) {
		t.Errorf("version 9: err = %v, want ErrVersion", err)
	}
	if err := corrupt(func(m *Manifest) { m.Lambda = 1.5 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad lambda: err = %v, want ErrCorrupt", err)
	}
	if err := corrupt(func(m *Manifest) { m.Side.IDs = m.Side.IDs[:1] }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mismatched side lists: err = %v, want ErrCorrupt", err)
	}
	if err := corrupt(func(m *Manifest) { m.Tombstones[0] = 100 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range tombstone: err = %v, want ErrCorrupt", err)
	}

	// Non-JSON bytes.
	d := t.TempDir()
	if err := os.WriteFile(filepath.Join(d, ManifestFile), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(d); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad JSON: err = %v, want ErrCorrupt", err)
	}
}

// TestOlderVersionsRejected: there is no read-compat. A container or
// manifest of any earlier format version fails every open path with
// ErrVersion — never ErrCorrupt, never a panic — and the message names both
// versions and says what to do about it.
func TestOlderVersionsRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "kindA")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("alpha", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for old := uint32(1); old < Version; old++ {
		raw := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(raw[8:12], old)
		dir := t.TempDir()
		manifest := fmt.Sprintf(`{"format_version":%d,"lambda":0.5,"partition":"contiguous"}`, old)
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			open func() error
		}{
			{"OpenMapped", func() error { _, err := OpenMapped(raw, "kindA"); return err }},
			{"ReadManifest", func() error { _, err := ReadManifest(dir); return err }},
		} {
			err := tc.open()
			if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
				t.Errorf("v%d %s: err = %v, want ErrVersion only", old, tc.name, err)
				continue
			}
			for _, want := range []string{fmt.Sprintf("version %d,", old), fmt.Sprintf("version %d only", Version), "rebuild"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("v%d %s: message %q lacks %q", old, tc.name, err, want)
				}
			}
		}
	}
}

// TestSetsRoundTrip: ReadSets returns what EncodeSets wrote at every padding
// length, as headers over the payload's own token region wherever View can
// alias it, and CloneSets detaches them from it.
func TestSetsRoundTrip(t *testing.T) {
	for n := 0; n <= 9; n++ { // n one-byte sizes: paddings 0, 3, 2, 1, 0, ...
		sets := make([][]uint32, n)
		for i := range sets {
			sets[i] = []uint32{uint32(i), uint32(i) + 7, 1 << 31}[:i%4]
		}
		payload := EncodeSets(sets)
		got, err := ReadSets(payload, uint64(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range sets {
			if !slices.Equal(got[i], sets[i]) {
				t.Fatalf("n=%d set %d: %v, want %v", n, i, got[i], sets[i])
			}
		}
		if n < 2 {
			continue
		}
		first := unsafe.Pointer(&got[1][0]) // set 0 is empty
		inPlace := uintptr(first) >= uintptr(unsafe.Pointer(&payload[0])) &&
			uintptr(first) < uintptr(unsafe.Pointer(&payload[len(payload)-1]))
		if aligned := uintptr(unsafe.Pointer(&payload[0]))%4 == 0; inPlace != (hostLittleEndian && aligned) {
			t.Errorf("n=%d: sets in place = %v on a little-endian=%v host with an aligned=%v payload",
				n, inPlace, hostLittleEndian, aligned)
		}
		clone := CloneSets(got)
		for i := range payload {
			payload[i] = 0xff
		}
		for i := range sets {
			if !slices.Equal(clone[i], sets[i]) {
				t.Fatalf("n=%d: cloned set %d follows the payload: %v", n, i, clone[i])
			}
		}
	}
}

// TestValidateSets: the check a set list arriving outside a sets section
// gets (a manifest's side shard, a generated dataset): every set non-empty
// and strictly increasing, the first violation named.
func TestValidateSets(t *testing.T) {
	if err := ValidateSets([][]uint32{{1, 2}, {3}}); err != nil {
		t.Errorf("valid sets rejected: %v", err)
	}
	for _, tc := range []struct {
		sets [][]uint32
		want string
	}{
		{[][]uint32{{1}, {}}, "set 1 is empty"},
		{[][]uint32{{2, 1}}, "set 0 not strictly increasing"},
		{[][]uint32{{1, 2}, {1, 1}}, "set 1 not strictly increasing"},
	} {
		if err := ValidateSets(tc.sets); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ValidateSets(%v) = %v, want ErrCorrupt mentioning %q", tc.sets, err, tc.want)
		}
	}
}

// TestReadSetsGuards: one crafted payload per guard of the one sets reader.
func TestReadSetsGuards(t *testing.T) {
	payload := func(sizes []uint64, pad []byte, tokens ...uint32) []byte {
		var b Buf
		for _, s := range sizes {
			b.Uvarint(s)
		}
		b.B = append(b.B, pad...)
		for _, tok := range tokens {
			b.U32(tok)
		}
		return b.B
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		n    uint64
		want string
	}{
		{"valid", payload([]uint64{2, 1}, []byte{0, 0}, 1, 2, 9), 2, ""},
		{"count beyond the payload", payload([]uint64{1}, nil), 1 << 40, "set count"},
		{"size above the cap", payload([]uint64{1<<28 + 1, 1}, nil), 2, "implausible set size"},
		{"sizes that would wrap a sum", payload([]uint64{1 << 63, 1 << 63}, nil), 2, "implausible set size"},
		{"size prefix truncated", []byte{2, 0x80}, 2, "bad varint"},
		{"nonzero padding", payload([]uint64{2, 1}, []byte{0, 1}, 1, 2, 9), 2, "nonzero token padding"},
		{"padding truncated", payload([]uint64{0, 0}, []byte{0}), 2, "truncated"},
		{"padding missing", payload([]uint64{2, 1}, nil, 1, 2, 9), 2, "nonzero token padding"},
		{"tokens not a multiple of four", append(payload([]uint64{2, 1}, []byte{0, 0}, 1, 2, 9), 0), 2, "tokens for"},
		{"a token short", payload([]uint64{2, 1}, []byte{0, 0}, 1, 2), 2, "tokens for"},
		{"a token over", payload([]uint64{2, 1}, []byte{0, 0}, 1, 2, 9, 9), 2, "tokens for"},
		{"unsorted set", payload([]uint64{2, 1}, []byte{0, 0}, 2, 1, 9), 2, "set 0 not strictly increasing"},
		{"duplicate token", payload([]uint64{1, 2}, []byte{0, 0}, 1, 9, 9), 2, "set 1 not strictly increasing"},
	} {
		sets, err := ReadSets(tc.raw, tc.n)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) || sets != nil):
			t.Errorf("%s: sets %v, err = %v, want ErrCorrupt mentioning %q", tc.name, sets, err, tc.want)
		}
	}
}
