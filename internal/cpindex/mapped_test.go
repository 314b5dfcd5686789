package cpindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// buildContainer encodes a small but non-trivial index (several trees,
// real internal nodes) as a standalone container.
func buildContainer(tb testing.TB, seed uint64) (*Index, []byte) {
	tb.Helper()
	return encodeIndex(tb, [][]uint32{
		{1, 2, 3}, {2, 3, 4}, {5, 6}, {1, 9, 12, 40},
		{3, 4, 5, 6, 7}, {2, 4, 9}, {7, 8, 9, 10}, {1, 3, 40},
	}, seed)
}

func encodeIndex(tb testing.TB, sets [][]uint32, seed uint64) (*Index, []byte) {
	tb.Helper()
	ix := Build(sets, 0.4, &Options{Trees: 3, LeafSize: 2, Seed: seed})
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return ix, buf.Bytes()
}

// deadLeaves counts the empty leaves of a built index: the nodes that
// sampled no position. (A leaf that is merely small holds at least one id.)
func deadLeaves(ix *Index) (dead int) {
	for _, n := range ix.trie.nodes {
		if n.posLo == n.posHi && n.leafLo == n.leafHi {
			dead++
		}
	}
	return dead
}

func openMappedBytes(tb testing.TB, data []byte) (*Mapped, error) {
	tb.Helper()
	snap, err := snapshot.OpenMapped(data, SnapshotKind)
	if err != nil {
		return nil, err
	}
	return OpenMapped(snap, nil)
}

var mappedProbes = [][]uint32{
	{1, 2, 3}, {2, 3, 4}, {5, 6}, {1, 9, 12, 40},
	{3, 4, 5, 6, 7}, {8, 11}, {2, 4}, {40}, nil,
}

// TestMappedMatchesIndex pins the tentpole equivalence at the cpindex
// layer: the lazily decoded mapped view answers AppendAll, and its InPlace
// view Query, byte-identically to the fully decoded index, including the
// candidate pipeline stats (same traversal, same verification kernel).
func TestMappedMatchesIndex(t *testing.T) {
	for _, seed := range []uint64{1, 42, 99} {
		ix, data := buildContainer(t, seed)
		m, err := openMappedBytes(t, data)
		if err != nil {
			t.Fatalf("seed %d: open mapped: %v", seed, err)
		}
		if m.Len() != ix.Len() || m.Lambda() != ix.Lambda() || m.Options() != ix.Options() {
			t.Fatalf("seed %d: mapped meta diverges: %d/%v/%+v vs %d/%v/%+v",
				seed, m.Len(), m.Lambda(), m.Options(), ix.Len(), ix.Lambda(), ix.Options())
		}
		for _, q := range mappedProbes {
			hall, hallSt := ix.AppendAllWithStats(nil, q)
			call, callSt, err := m.AppendAllWithStats(nil, q)
			if err != nil {
				t.Fatalf("seed %d: mapped AppendAll(%v): %v", seed, q, err)
			}
			if len(hall) != len(call) || hallSt != callSt {
				t.Fatalf("seed %d: AppendAll(%v): mapped %v/%+v != hot %v/%+v",
					seed, q, call, callSt, hall, hallSt)
			}
			for i := range hall {
				if hall[i] != call[i] {
					t.Fatalf("seed %d: AppendAll(%v)[%d]: mapped %+v != hot %+v", seed, q, i, call[i], hall[i])
				}
			}
		}
		in, err := m.InPlace()
		if err != nil {
			t.Fatalf("seed %d: InPlace: %v", seed, err)
		}
		if in.Nodes != ix.Nodes || in.Leaves != ix.Leaves {
			t.Fatalf("seed %d: mapped structure %d/%d, index %d/%d", seed, in.Nodes, in.Leaves, ix.Nodes, ix.Leaves)
		}
		for _, q := range mappedProbes {
			hid, hsim, hok, hst := ix.QueryWithStats(q)
			cid, csim, cok, cst := in.QueryWithStats(q)
			if cid != hid || csim != hsim || cok != hok || cst != hst {
				t.Fatalf("seed %d: Query(%v): in place (%d,%v,%v,%+v) != hot (%d,%v,%v,%+v)",
					seed, q, cid, csim, cok, cst, hid, hsim, hok, hst)
			}
		}
		// Sets materialization must round-trip the exact collection.
		sets, err := m.Sets()
		if err != nil {
			t.Fatalf("seed %d: Sets: %v", seed, err)
		}
		for i, want := range ix.Sets() {
			if !slices.Equal(sets[i], want) {
				t.Fatalf("seed %d: set %d diverges: %v != %v", seed, i, sets[i], want)
			}
		}
	}
}

// trieArrays lists the first element of each of a trie's five arrays.
func trieArrays(t *trie) map[string]unsafe.Pointer {
	return map[string]unsafe.Pointer{
		"roots":   unsafe.Pointer(unsafe.SliceData(t.roots)),
		"nodes":   unsafe.Pointer(unsafe.SliceData(t.nodes)),
		"leafIDs": unsafe.Pointer(unsafe.SliceData(t.leafIDs)),
		"pos":     unsafe.Pointer(unsafe.SliceData(t.pos)),
		"buckets": unsafe.Pointer(unsafe.SliceData(t.buckets)),
	}
}

func within(data []byte, p unsafe.Pointer) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return uintptr(p) >= lo && uintptr(p) < lo+uintptr(len(data))
}

func equalTries(a, b *trie) bool {
	return slices.Equal(a.roots, b.roots) && slices.Equal(a.nodes, b.nodes) && slices.Equal(a.leafIDs, b.leafIDs) &&
		slices.Equal(a.pos, b.pos) && slices.Equal(a.buckets, b.buckets)
}

// TestMappedTrieReadsInPlace: after first touch the five arrays of a mapped
// index's trie are the trees section of its file — on a little-endian host
// nothing is copied, elsewhere View converts once — InPlace() hands out that
// same view, and Index() clones them,
// so the heap view still answers once the file is unmapped (a trie left
// aliasing the mapping dies there with "unexpected fault address").
func TestMappedTrieReadsInPlace(t *testing.T) {
	sets := persistWorkload(400, 53)
	ix := Build(sets, 0.5, &Options{Trees: 4, Seed: 13})
	path := filepath.Join(t.TempDir(), "ix.cps")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	f, err := mmap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.OpenMapped(f.Data, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(snap, f)
	if err != nil {
		t.Fatal(err)
	}
	if m.trie != nil {
		t.Fatal("the trie was read before the first query")
	}
	for qi := 0; qi < len(sets); qi += 7 {
		got, err := m.AppendAll(nil, sets[qi])
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(got, ix.QueryAll(sets[qi])) {
			t.Fatalf("query %d: the mapped view answers differently", qi)
		}
	}
	if !equalTries(m.trie, ix.trie) {
		t.Fatal("the trie read in place is not the trie that was saved")
	}
	sec := snap.Lookup("trees")
	trees := f.Data[sec.Off : sec.Off+sec.Len]
	littleEndian := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	for name, p := range trieArrays(m.trie) {
		if within(trees, p) != littleEndian {
			t.Errorf("%s: inside the trees section = %v on a host whose little-endianness is %v", name, !littleEndian, littleEndian)
		}
	}
	in, err := m.InPlace()
	if err != nil {
		t.Fatal(err)
	}
	if in.trie != m.trie || !matchesEqual(in.QueryAll(sets[0]), ix.QueryAll(sets[0])) {
		t.Fatal("InPlace is not the validated view the mapped index queries")
	}
	hot, err := m.Index()
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range trieArrays(hot.trie) {
		if within(f.Data, p) {
			t.Errorf("%s: the heap view's array lies inside the container", name)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < len(sets); qi += 7 {
		if !matchesEqual(hot.QueryAll(sets[qi]), ix.QueryAll(sets[qi])) {
			t.Fatalf("query %d: the heap view answers differently once the file is gone", qi)
		}
	}
}

// TestDecodeTrieMisaligned drives the path a little-endian host otherwise
// never takes: a payload that does not start on a word boundary cannot be
// viewed, so View copies it to native words and the same casts, the same
// validation and the same rejections run over the copy.
func TestDecodeTrieMisaligned(t *testing.T) {
	ix := Build(persistWorkload(300, 59), 0.5, &Options{Trees: 3, Seed: 17})
	enc := ix.trie.encode()
	buf := make([]byte, len(enc)+8)
	off := 1
	if uintptr(unsafe.Pointer(&buf[0]))%4 != 0 {
		t.Fatal("a byte slice this size does not start word-aligned")
	}
	payload := buf[off : off+len(enc)]
	copy(payload, enc)
	got, err := decodeTrie(payload, ix.opt, ix.nsets, ix.Nodes, ix.Leaves)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTries(got, ix.trie) {
		t.Fatal("a misaligned payload decodes to a different trie")
	}
	for name, p := range trieArrays(got) {
		if within(buf, p) {
			t.Errorf("%s aliases a payload that is not word-aligned", name)
		}
	}
	k := &kernel{lambda: ix.lambda, opt: ix.opt, nsets: ix.nsets, signer: ix.signer, trie: got, sets: ix.sets}
	for qi, q := range ix.sets[:50] {
		if ms := k.all(k.getScratch(), nil, q); !matchesEqual(ms, ix.QueryAll(q)) {
			t.Fatalf("query %d: the copied trie walks differently", qi)
		}
	}
	// The validator sees the copy exactly as it sees a view: one child index
	// pointed back at its parent is rejected, not walked.
	bad := slices.Clone(buf)
	first := 4 * (trieHeaderWords + len(ix.trie.roots) + nodeWords*len(ix.trie.nodes) + len(ix.trie.leafIDs) + posWords*len(ix.trie.pos))
	binary.LittleEndian.PutUint32(bad[off+first+4:], 0)
	if _, err := decodeTrie(bad[off:off+len(enc)], ix.opt, ix.nsets, ix.Nodes, ix.Leaves); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("a child index of 0 in a misaligned payload: %v, want ErrCorrupt", err)
	}
}

// TestMappedTruncated: every proper prefix of a valid container must fail
// with a descriptive error — at open, never a panic and never a decode.
func TestMappedTruncated(t *testing.T) {
	_, data := buildContainer(t, 7)
	for n := 0; n < len(data); n++ {
		m, err := openMappedBytes(t, data[:n])
		if err == nil {
			// The mapped open is lazy, so a truncation that leaves every
			// section header intact can only surface at first query.
			if _, qerr := m.AppendAll(nil, []uint32{1, 2, 3}); qerr == nil {
				t.Fatalf("truncation to %d/%d bytes opened and queried cleanly", n, len(data))
			}
			continue
		}
		if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("truncation to %d bytes: error %v wraps neither ErrCorrupt nor ErrVersion", n, err)
		}
	}
}

// TestMappedBitFlip: a flipped bit in any section payload must surface as
// ErrCorrupt at open or first touch — never a wrong answer. The sets and
// trees payloads are the interesting case: their pages are untouched at open
// and only checksummed by the first query.
func TestMappedBitFlip(t *testing.T) {
	ix, data := buildContainer(t, 13)
	snap, err := snapshot.OpenMapped(data, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta", "trees", "sets"} {
		s := snap.Lookup(name)
		if s == nil || s.Len == 0 {
			t.Fatalf("valid container has no %q payload", name)
		}
		// Flip the last payload byte: in "sets" that is token data.
		corrupt := append([]byte(nil), data...)
		corrupt[s.Off+s.Len-1] ^= 0x40

		m, err := openMappedBytes(t, corrupt)
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("%s flip: open error %v does not wrap ErrCorrupt", name, err)
			}
			continue // caught at open (meta is read eagerly)
		}
		for _, q := range mappedProbes {
			want := ix.QueryAll(q)
			got, err := m.AppendAll(nil, q)
			if err != nil {
				if !errors.Is(err, snapshot.ErrCorrupt) {
					t.Fatalf("%s flip: query error %v does not wrap ErrCorrupt", name, err)
				}
				continue
			}
			// A query that never touched the corrupt bytes may legitimately
			// succeed — but then it must agree with the pristine index.
			if !matchesEqual(got, want) {
				t.Fatalf("%s flip: AppendAll(%v) silently answered %v, pristine index says %v",
					name, q, got, want)
			}
		}
		if name == "sets" {
			if _, err := m.Sets(); err == nil {
				t.Fatalf("sets flip: whole-collection materialization passed the checksum")
			} else if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("sets flip: Sets error %v does not wrap ErrCorrupt", err)
			}
		}
	}
}

// TestMappedNonzeroPadding: alignment padding must be zero; a dirty pad byte
// (a misaligned or hand-edited file) fails at open before a section header,
// and at first touch — the sets section is not read before — between the
// size prefix and the tokens of a sets payload, fresh checksum or not.
func TestMappedNonzeroPadding(t *testing.T) {
	_, data := buildContainer(t, 21)
	snap, err := snapshot.OpenMapped(data, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	const chl = 8 + 4 + 8
	prevEnd := int64(chl)
	patched := false
	for _, s := range snap.Sections() {
		hdrOff := s.Off - 20
		if hdrOff > prevEnd {
			corrupt := append([]byte(nil), data...)
			corrupt[prevEnd] = 0xFF
			if _, err := openMappedBytes(t, corrupt); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("dirty pad byte at %d: error %v does not wrap ErrCorrupt", prevEnd, err)
			}
			patched = true
		}
		prevEnd = s.Off + s.Len
	}
	if !patched {
		t.Fatal("container has no alignment padding to corrupt — section sizes all 8-aligned?")
	}

	// Seven sets: seven size bytes, one byte of token padding.
	ix, data := encodeIndex(t, [][]uint32{{1, 2, 3}, {2, 3, 4}, {5, 6}, {1, 9, 12, 40}, {3, 4, 5, 6, 7}, {2, 4, 9}, {7, 8, 9, 10}}, 21)
	if snap, err = snapshot.OpenMapped(data, SnapshotKind); err != nil {
		t.Fatal(err)
	}
	section := func(name string) []byte {
		raw, err := snap.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	sets := append([]byte(nil), section("sets")...)
	if sets[7] != 0 || sets[8] != 1 {
		t.Fatalf("sets payload % x has no pad byte after seven sizes", sets[:12])
	}
	sets[7] = 0xFF
	crafted := craftContainer(t, func(b *snapshot.Buf) { b.B = append(b.B, section("meta")...) }, sets, section("trees"))
	m, err := openMappedBytes(t, crafted)
	if err != nil {
		t.Fatalf("the mapped open read the sets section: %v", err)
	}
	if _, err := m.AppendAll(nil, ix.Sets()[0]); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("dirty token pad byte: first touch error %v does not wrap ErrCorrupt", err)
	}
	if _, err := Decode(bytes.NewReader(crafted)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("dirty token pad byte: heap load error %v does not wrap ErrCorrupt", err)
	}
}

// FuzzMappedDecode drives the lazy mapped decoder with attacker-controlled
// bytes, with the eager decoder as a differential oracle: whatever bytes
// both accept must answer queries identically, anything else must fail
// with an error — never a panic, an unbounded allocation or an invalid
// match.
func FuzzMappedDecode(f *testing.F) {
	// Seeds 8 and 12 build trees whose root died: empty leaf spans, alone
	// in a tree and beside real ones.
	dead := 0
	for _, seed := range []uint64{1, 8, 12, 99} {
		ix, data := buildContainer(f, seed)
		dead += deadLeaves(ix)
		f.Add(data)
		f.Add(data[:len(data)*2/3]) // truncation
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-1] ^= 0x01 // sets payload flip
		f.Add(flipped)
	}
	if dead < 5 {
		f.Fatalf("seed corpus holds %d empty leaves, built for at least 5", dead)
	}
	probes := [][]uint32{{1, 2, 3}, {5, 6}, {3, 4, 5, 6, 7}, {7}, nil}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := openMappedBytes(t, data)
		if err != nil {
			return
		}
		hot, hotErr := Decode(bytes.NewReader(data))
		for _, q := range probes {
			ms, err := m.AppendAll(nil, q)
			if err != nil {
				continue // corruption surfaced at first touch — the contract
			}
			for _, match := range ms {
				if match.ID < 0 || match.ID >= m.Len() || match.Sim < m.Lambda() {
					t.Fatalf("mapped index returned invalid match %+v", match)
				}
			}
			if hotErr == nil {
				if hall := hot.QueryAll(q); !matchesEqual(ms, hall) {
					t.Fatalf("QueryAll(%v): mapped %v != decoded %v", q, ms, hall)
				}
			}
		}
	})
}
