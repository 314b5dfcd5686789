package prep

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/snapshot"
	"repro/internal/tabhash"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	sets := datagen.Uniform(80, 12, 2000, 5).Sets
	return Build(sets, 32, 4, 99)
}

func indexesEqual(a, b *Index) bool {
	if a.T != b.T || a.Words != b.Words || a.Seed != b.Seed || len(a.Sets) != len(b.Sets) {
		return false
	}
	for i := range a.Sets {
		if len(a.Sets[i]) != len(b.Sets[i]) {
			return false
		}
		for j := range a.Sets[i] {
			if a.Sets[i][j] != b.Sets[i][j] {
				return false
			}
		}
	}
	if len(a.Sigs) != len(b.Sigs) || len(a.Sketches) != len(b.Sketches) {
		return false
	}
	for i := range a.Sigs {
		if a.Sigs[i] != b.Sigs[i] {
			return false
		}
	}
	for i := range a.Sketches {
		if a.Sketches[i] != b.Sketches[i] {
			return false
		}
	}
	return true
}

// serialize returns the container bytes of ix.
func serialize(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loaders are the two ways into an index: ReadFrom over the bytes, and Load
// of a file holding them, which maps it. Every malformed input below goes
// through both.
var loaders = []struct {
	name string
	load func(t *testing.T, raw []byte) (*Index, error)
}{
	{"ReadFrom", func(t *testing.T, raw []byte) (*Index, error) { return ReadFrom(bytes.NewReader(raw)) }},
	{"Load", func(t *testing.T, raw []byte) (*Index, error) {
		path := filepath.Join(t.TempDir(), "ix.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(path)
	}},
}

// rejected asserts that both loaders refuse raw with an error wrapping
// ErrCorrupt and every error in also.
func rejected(t *testing.T, what string, raw []byte, also ...error) {
	t.Helper()
	for _, l := range loaders {
		_, err := l.load(t, raw)
		for _, target := range append([]error{ErrCorrupt}, also...) {
			if !errors.Is(err, target) {
				t.Errorf("%s, %s: err = %v, want it to wrap %v", what, l.name, err, target)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesEqual(ix, back) {
		t.Fatal("round trip changed the index")
	}
}

func TestIndexRoundTripNoSketches(t *testing.T) {
	sets := datagen.Uniform(40, 10, 1000, 6).Sets
	ix := Build(sets, 16, 0, 7)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Words != 0 || back.Sketches != nil {
		t.Fatal("sketchless index grew sketches on load")
	}
	if !indexesEqual(ix, back) {
		t.Fatal("round trip changed the index")
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "test.cpsidx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesEqual(ix, back) {
		t.Fatal("file round trip changed the index")
	}
}

func TestCorruptionDetected(t *testing.T) {
	raw := serialize(t, buildTestIndex(t))
	// Flip one byte — in the meta and sets sections, in each matrix, in a
	// section header: a checksum, a header check or a set invariant must
	// catch it before anything is handed out.
	m, err := snapshot.OpenMapped(raw, snapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	positions := []int{40, len(raw) / 2, len(raw) - 10}
	for _, sec := range m.Sections() {
		positions = append(positions, int(sec.Off)-1, int(sec.Off), int(sec.Off+sec.Len)-1)
	}
	for _, pos := range positions {
		mutated := append([]byte(nil), raw...)
		mutated[pos] ^= 0xff
		rejected(t, fmt.Sprintf("byte %d flipped", pos), mutated)
	}
}

func TestBadMagic(t *testing.T) {
	rejected(t, "bad magic", []byte("NOTANIDX........................"))
	rejected(t, "empty file", nil)
}

func TestWrongVersionRejected(t *testing.T) {
	raw := serialize(t, buildTestIndex(t))
	raw[8] = 0x6e // container version field
	rejected(t, "version 110", raw, snapshot.ErrVersion)
}

func TestWrongKindRejected(t *testing.T) {
	// A cpindex/shard snapshot handed to prep.Load must be recognized by
	// its kind tag, not half-decoded.
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, "cpindex")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejected(t, "kind cpindex", buf.Bytes())
}

func TestTruncation(t *testing.T) {
	raw := serialize(t, buildTestIndex(t))
	for _, cut := range []int{5, 30, len(raw) / 2, len(raw) - 2} {
		rejected(t, fmt.Sprintf("cut at %d bytes", cut), raw[:cut])
	}
}

func TestMatrixSectionLengthChecked(t *testing.T) {
	// A header claiming a large signature matrix over an empty sigs
	// section must fail on the length check before allocating.
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	var meta snapshot.Buf
	meta.U64(0)       // seed
	meta.U64(1 << 25) // n
	meta.U32(1 << 18) // t — n*t*4 would be 32 TiB
	meta.U32(0)       // words
	if err := w.Section("meta", meta.B); err != nil {
		t.Fatal(err)
	}
	var sets snapshot.Buf
	for i := 0; i < 1<<10; i++ { // some sizes, then truncation territory
		sets.Uvarint(0)
	}
	if err := w.Section("sets", sets.B); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejected(t, "huge matrix header", buf.Bytes())

	// A matrix one element short or long of what the header implies.
	ix := buildTestIndex(t)
	short, long := *ix, *ix
	short.Sigs = ix.Sigs[:len(ix.Sigs)-1]
	long.Sketches = append(slices.Clone(ix.Sketches), 0)
	rejected(t, "sigs one element short", serialize(t, &short))
	rejected(t, "sketches one element long", serialize(t, &long))
}

func TestImplausibleHeaderRejected(t *testing.T) {
	// Craft a meta section claiming an absurd t: the CRC is valid, so the
	// plausibility check must catch it.
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	var meta snapshot.Buf
	meta.U64(0)          // seed
	meta.U64(1)          // n = 1
	meta.U32(0x7fffffff) // t huge
	meta.U32(0)          // words
	if err := w.Section("meta", meta.B); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejected(t, "implausible header", buf.Bytes())
}

// goldenSets is the fixed collection of internal/sketch's golden test: set
// sizes 1, 2, 10, 300 and 2000 over token ranges below 2^8, below 2^16 and
// the full 32 bits with the top byte forced nonzero.
func goldenSets() [][]uint32 {
	rng := tabhash.NewSplitMix64(0x601de2)
	var sets [][]uint32
	for _, universe := range []uint64{1 << 8, 1 << 16, 1 << 32} {
		for _, size := range []int{1, 2, 10, 300, 2000} {
			if uint64(size) > universe/2 {
				continue
			}
			seen := make(map[uint32]bool, size)
			set := make([]uint32, 0, size)
			for len(set) < size {
				tok := uint32(rng.Next() % universe)
				if universe == 1<<32 {
					tok |= 1 << 24
				}
				if !seen[tok] {
					seen[tok] = true
					set = append(set, tok)
				}
			}
			sets = append(sets, intset.Normalize(set))
		}
	}
	return sets
}

// TestGoldenIndexBytes pins the serialized index — signatures, sketches and
// container layout. Re-recorded once, for snapshot version 5: against the
// version 4 bytes (recorded before the transposed sketch kernel and the bulk
// section codec) the version word went 4 -> 5 and the sets payload gained the
// three zero bytes that 4-align its tokens behind 17 bytes of sizes; meta,
// sigs and sketches are byte for byte what they were. Re-recorded for the
// sketched cases when a sketch bit became the low bit of a 32-bit minimum:
// only the sketches section moved (words 0 keeps its digest).
func TestGoldenIndexBytes(t *testing.T) {
	sets := goldenSets()
	for _, tc := range []struct {
		words int
		want  string
	}{
		{0, "0bd121e99e9fef9354b88bc286ae2a83c9797973d0443b249739f71ceac3a6cd"},
		{1, "8ae7dd2ea84d5cd7335ebeca6ecb5d37389f249619d3ee3b91c7597b4795809e"},
		{8, "b3be237a6328a8d3c50032d5edbb761d22eeb94a2bc31ba5a059645f9dbe4165"},
	} {
		var buf bytes.Buffer
		if _, err := Build(sets, 16, tc.words, 42).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("words=%d: index digest %s, want %s", tc.words, got, tc.want)
		}
		back, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("words=%d: %v", tc.words, err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("words=%d: loaded index serializes to different bytes", tc.words)
		}
	}
}

// TestSectionLayoutChecked: a container whose sections are not exactly the
// ones WriteTo emits, in its order, is rejected even though every section
// is individually valid.
func TestSectionLayoutChecked(t *testing.T) {
	ix := Build(datagen.Uniform(5, 4, 100, 1).Sets, 4, 1, 3)
	var valid bytes.Buffer
	if _, err := ix.WriteTo(&valid); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.OpenMapped(valid.Bytes(), snapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]string{
		{"meta", "sets", "sketches", "sigs"},
		{"meta", "sets", "sigs"},
		{"meta", "sets", "sigs", "sketches", "sigs"},
		{"meta", "sets", "sigs", "sketches", "extra"},
	} {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf, snapshotKind)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range order {
			payload, _ := m.Section(name) // "extra" is absent: an empty section
			if err := w.Section(name, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rejected(t, fmt.Sprintf("sections %v", order), buf.Bytes())
	}
}

// FuzzReadFrom feeds ReadFrom arbitrary container bytes. The contract: an
// error wrapping ErrCorrupt, or an index that serializes back to exactly
// the bytes it was loaded from — never a panic, and never an allocation a
// header asked for that the bytes present do not back. The checksums would
// stop nearly every mutation at the door, so each input is also tried with
// its section CRCs recomputed, which lets mutated payloads reach the
// decoders behind them.
func FuzzReadFrom(f *testing.F) {
	sets := datagen.Uniform(12, 6, 300, 5).Sets
	for _, words := range []int{0, 2} {
		var buf bytes.Buffer
		if _, err := Build(sets, 8, words, 7).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			ix, err := ReadFrom(bytes.NewReader(data))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error does not wrap ErrCorrupt: %v", err)
				}
				return
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("accepted %d bytes that serialize back to %d different bytes", len(data), buf.Len())
			}
		}
		check(data)
		m, err := snapshot.OpenMapped(data, snapshotKind)
		if err != nil {
			return
		}
		resealed := append([]byte(nil), data...)
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		for _, s := range m.Sections() {
			binary.LittleEndian.PutUint32(resealed[s.Off-4:], crc32.Checksum(data[s.Off:s.Off+s.Len], castagnoli))
		}
		check(resealed)
	})
}

// benchIndex is an index with the dimensions of the ledger's join_flat
// workload (40 000 ten-token sets, T = 128, 8 sketch words: 24.7 MB on
// disk). The matrices are pseudorandom words rather than real hashes: the
// codec does not look at them, and building them would dominate the run.
func benchIndex() *Index {
	const n, t, words = 40000, 128, 8
	ix := &Index{
		Sets:     datagen.Uniform(n, 10, 209, 1).Sets,
		T:        t,
		Sigs:     make([]uint32, n*t),
		Words:    words,
		Sketches: make([]uint64, n*words),
		Seed:     42,
	}
	rng := tabhash.NewSplitMix64(1)
	for i := range ix.Sigs {
		ix.Sigs[i] = uint32(rng.Next())
	}
	for i := range ix.Sketches {
		ix.Sketches[i] = rng.Next()
	}
	return ix
}

func BenchmarkSave(b *testing.B) {
	ix := benchIndex()
	path := filepath.Join(b.TempDir(), "ix.bin")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Save(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
}

func BenchmarkLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "ix.bin")
	if err := benchIndex().Save(path); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
