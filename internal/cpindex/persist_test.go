package cpindex

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/snapshot"
)

func persistWorkload(n int, seed uint64) [][]uint32 {
	return datagen.Uniform(n, 20, 20000, seed).Sets
}

// matchesEqual compares QueryAll outputs exactly.
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEncodeDecodeRoundTrip pins the persistence contract: a decoded
// index answers Query and QueryAll byte-identically to the index it was
// encoded from, for every query.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	sets := persistWorkload(700, 41)
	ix := Build(sets, 0.5, &Options{Trees: 8, Seed: 9, Workers: 4})

	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ix.Len() || back.Nodes != ix.Nodes || back.Leaves != ix.Leaves {
		t.Fatalf("structure stats changed: %d/%d/%d -> %d/%d/%d",
			ix.Len(), ix.Nodes, ix.Leaves, back.Len(), back.Nodes, back.Leaves)
	}
	// Workers is build-time parallelism, deliberately not persisted.
	want := ix.Options()
	want.Workers = 0
	if back.Lambda() != ix.Lambda() || back.Options() != want {
		t.Fatalf("lambda/options changed: %v %+v -> %v %+v",
			ix.Lambda(), want, back.Lambda(), back.Options())
	}
	for qi := 0; qi < len(sets); qi += 3 {
		q := sets[qi]
		if !matchesEqual(ix.QueryAll(q), back.QueryAll(q)) {
			t.Fatalf("query %d: QueryAll differs after round trip", qi)
		}
		id1, sim1, ok1 := ix.Query(q)
		id2, sim2, ok2 := back.Query(q)
		if id1 != id2 || sim1 != sim2 || ok1 != ok2 {
			t.Fatalf("query %d: Query differs after round trip", qi)
		}
	}
}

// TestSnapshotDeterministic: encoding the same index twice yields the
// same bytes (bucket maps are sorted before writing).
func TestSnapshotDeterministic(t *testing.T) {
	sets := persistWorkload(300, 43)
	ix := Build(sets, 0.6, &Options{Trees: 4, Seed: 5})
	var a, b bytes.Buffer
	if err := ix.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same index differ")
	}
}

// TestSaveLoadFile: Load returns an index that references no container
// bytes — it has unmapped its file by the time it returns, so a set still
// aliasing the mapping faults in the queries or the save below.
func TestSaveLoadFile(t *testing.T) {
	sets := persistWorkload(200, 47)
	ix := Build(sets, 0.5, &Options{Trees: 4, Seed: 11})
	path := filepath.Join(t.TempDir(), "ix.cps")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(path)) {
		t.Fatalf("Load returned with %s still mapped", path)
	}
	for qi := 0; qi < len(sets); qi += 5 {
		if !matchesEqual(ix.QueryAll(sets[qi]), back.QueryAll(sets[qi])) {
			t.Fatalf("query %d differs after file round trip", qi)
		}
	}
	again := filepath.Join(t.TempDir(), "again.cps")
	if err := back.Save(again); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(path)
	if got, _ := os.ReadFile(again); len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("a loaded index saves %d bytes that differ from the %d it was loaded from", len(got), len(want))
	}
}

// TestCorruptSnapshotRejected: truncation at any point, a flipped byte
// anywhere, and a wrong format version must all return descriptive
// errors — never panic, never a silently wrong index.
func TestCorruptSnapshotRejected(t *testing.T) {
	sets := persistWorkload(150, 53)
	ix := Build(sets, 0.5, &Options{Trees: 3, Seed: 13})
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	decode := func(b []byte) error {
		_, err := Decode(bytes.NewReader(b))
		return err
	}

	for cut := 0; cut < len(raw); cut += 101 {
		if err := decode(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for pos := 0; pos < len(raw); pos += 89 {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x20
		if err := decode(bad); err == nil {
			t.Errorf("flipped byte at %d accepted", pos)
		}
	}

	// Wrong container version.
	bad := append([]byte(nil), raw...)
	bad[8] = 0xee
	if err := decode(bad); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("wrong version: err = %v, want ErrVersion", err)
	}

	// Wrong kind (e.g. pointing Load at a prep index file).
	var other bytes.Buffer
	w, err := snapshot.NewWriter(&other, "prepidx")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := decode(other.Bytes()); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("wrong kind: err = %v, want ErrCorrupt", err)
	}
}

// craftContainer builds a CRC-valid cpindex container from raw section
// payloads — corruption the checksums cannot catch, which the decoder's
// plausibility guards must.
func craftContainer(t *testing.T, meta func(*snapshot.Buf), sets, trees []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	var mb snapshot.Buf
	meta(&mb)
	for _, s := range []struct {
		name string
		b    []byte
	}{{"meta", mb.B}, {"sets", sets}, {"trees", trees}} {
		if err := w.Section(s.name, s.b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCraftedSnapshotsRejected pins the never-panic contract against
// CRC-valid but adversarial payloads: size-sum overflow, allocation
// bombs from tiny files, implausible meta and — one per rule of the
// trie validator — "trees" payloads a walk would leave an array on or
// never return from. All must come back as errors.
func TestCraftedSnapshotsRejected(t *testing.T) {
	validMeta := func(b *snapshot.Buf) {
		b.F64(0.5)
		b.U32(4)  // T
		b.U32(32) // LeafSize
		b.U32(8)  // MaxDepth
		b.U32(1)  // Trees
		b.U64(7)  // Seed
		b.U64(0)  // Nodes
		b.U64(0)  // Leaves
		b.U64(2)  // nsets
	}

	// Two set sizes of 2^63 wrap the size sum to 0: the overflow guard,
	// not a slice-bounds panic, must reject it.
	var overflow snapshot.Buf
	overflow.Uvarint(1 << 63)
	overflow.Uvarint(1 << 63)
	raw := craftContainer(t, validMeta, overflow.B, nil)
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("size-sum overflow: err = %v, want ErrCorrupt", err)
	}

	// A set count far beyond the payload must fail before allocating.
	bomb := func(b *snapshot.Buf) {
		validMeta(b)
		b.B = b.B[:len(b.B)-8]
		b.U64(1 << 30) // nsets huge, sets payload empty
	}
	raw = craftContainer(t, bomb, nil, nil)
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("set-count bomb: err = %v, want ErrCorrupt", err)
	}

	// MaxDepth beyond any plausible build is rejected up front.
	deep := func(b *snapshot.Buf) {
		b.F64(0.5)
		b.U32(4)
		b.U32(32)
		b.U32(1 << 30) // MaxDepth absurd
		b.U32(1)
		b.U64(7)
		b.U64(0)
		b.U64(0)
		b.U64(0)
	}
	raw = craftContainer(t, deep, nil, nil)
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("absurd MaxDepth: err = %v, want ErrCorrupt", err)
	}

	// One crafted trees payload per validator rule, each a valid trie with
	// a single field changed, under its original meta and sets sections.
	ix, data := buildContainer(t, 5)
	snap, err := snapshot.OpenMapped(data, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	section := func(name string) []byte {
		raw, err := snap.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	realMeta := func(b *snapshot.Buf) { b.B = append(b.B, section("meta")...) }
	// firstInternal / firstLeaf locate nodes to damage; wide is a position
	// entry with at least two buckets.
	firstInternal, firstLeaf, wide := -1, -1, -1
	for i, n := range ix.trie.nodes {
		if n.posLo != n.posHi && firstInternal < 0 {
			firstInternal = i
		}
		if n.posLo == n.posHi && firstLeaf < 0 {
			firstLeaf = i
		}
	}
	for i, p := range ix.trie.pos {
		if p.bHi-p.bLo >= 2 && wide < 0 {
			wide = i
		}
	}
	if firstInternal < 0 || firstLeaf < 0 || wide < 0 {
		t.Fatal("test index too small to craft from")
	}
	nsets, nnodes := uint32(ix.Len()), int32(len(ix.trie.nodes))
	for _, tc := range []struct {
		rule   string
		damage func(tr *trie)
		want   string
	}{
		{"child <= parent", func(tr *trie) {
			tr.buckets[tr.pos[tr.nodes[firstInternal].posLo].bLo].child = int32(firstInternal)
		}, "child index"},
		{"child past the node table", func(tr *trie) {
			tr.buckets[tr.pos[tr.nodes[firstInternal].posLo].bLo].child = nnodes
		}, "child index"},
		{"leaf span past array end", func(tr *trie) {
			last := &tr.nodes[len(tr.nodes)-1]
			last.leafHi = uint32(len(tr.leafIDs)) + 1
		}, "leaf span"},
		{"position span past array end", func(tr *trie) {
			tr.nodes[firstInternal].posHi = uint32(len(tr.pos)) + 1
		}, "position span"},
		{"bucket span past array end", func(tr *trie) {
			tr.pos[wide].bHi = uint32(len(tr.buckets)) + 1
		}, "bucket span"},
		{"duplicate bucket value", func(tr *trie) {
			tr.buckets[tr.pos[wide].bLo+1].val = tr.buckets[tr.pos[wide].bLo].val
		}, "strictly increasing"},
		{"unsorted bucket values", func(tr *trie) {
			b := tr.buckets[tr.pos[wide].bLo : tr.pos[wide].bLo+2]
			b[0].val, b[1].val = b[1].val, b[0].val
		}, "strictly increasing"},
		{"leaf id >= nsets", func(tr *trie) { tr.leafIDs[0] = nsets }, "leaf id 8 out of"},
		{"position >= T", func(tr *trie) { tr.pos[0].pos = uint32(ix.Options().T) }, "position 128 out of"},
		{"internal node with zero positions", func(tr *trie) {
			tr.nodes[firstLeaf].posLo, tr.nodes[firstLeaf].posHi = 1, 1
		}, "no positions"},
		{"root index out of range", func(tr *trie) { tr.roots[0] = nnodes }, "root index"},
		{"node shared by two parents", func(tr *trie) {
			b := tr.buckets[tr.pos[wide].bLo : tr.pos[wide].bLo+2]
			b[0].child = b[1].child
		}, "claimed twice"},
	} {
		tr := &trie{
			roots:   append([]int32(nil), ix.trie.roots...),
			nodes:   append([]trieNode(nil), ix.trie.nodes...),
			leafIDs: append([]uint32(nil), ix.trie.leafIDs...),
			pos:     append([]triePos(nil), ix.trie.pos...),
			buckets: append([]trieBucket(nil), ix.trie.buckets...),
		}
		tc.damage(tr)
		raw := craftContainer(t, realMeta, section("sets"), tr.encode())
		_, err := Decode(bytes.NewReader(raw))
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorrupt mentioning %q", tc.rule, err, tc.want)
		}
		if m, err := openMappedBytes(t, raw); err == nil {
			if _, _, _, err := m.Query([]uint32{1, 2, 3}); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s: mapped query err = %v, want ErrCorrupt", tc.rule, err)
			}
		}
	}
	// One crafted sets payload per guard of the one sets reader, under the
	// meta and trees sections of the index they were cut from (six sets, so
	// the size prefix ends two bytes short of a multiple of four): the heap
	// path rejects at load, the mapped path opens — it reads meta only — and
	// rejects at first touch.
	six, sixData := encodeIndex(t, ix.Sets()[:6], 5)
	sixSnap, err := snapshot.OpenMapped(sixData, SnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	sixSection := func(name string) []byte {
		raw, err := sixSnap.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	sixMeta := func(b *snapshot.Buf) { b.B = append(b.B, sixSection("meta")...) }
	goodSets := sixSection("sets")
	if goodSets[6] != 0 || goodSets[7] != 0 || uint32(goodSets[8]) != six.Sets()[0][0] {
		t.Fatalf("sets payload % x does not pad six sizes to eight bytes", goodSets[:12])
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), goodSets...)) }
	for _, tc := range []struct {
		rule string
		raw  []byte
		want string
	}{
		{"nonzero token padding", edit(func(b []byte) []byte { b[7] = 1; return b }), "nonzero token padding"},
		{"token padding truncated", goodSets[:7], "truncated"},
		{"tokens not a multiple of four", edit(func(b []byte) []byte { return append(b, 0) }), "tokens for"},
		{"a token short", goodSets[:len(goodSets)-4], "tokens for"},
		{"a size one over", edit(func(b []byte) []byte { b[5]++; return b }), "tokens for"},
		{"size above the cap", edit(func(b []byte) []byte {
			return append([]byte{0x81, 0x80, 0x80, 0x80, 0x01}, b[1:]...) // 2^28 + 1
		}), "implausible set size"},
		{"one unsorted set", edit(func(b []byte) []byte {
			copy(b[8:12], goodSets[12:16])
			copy(b[12:16], goodSets[8:12])
			return b
		}), "set 0 not strictly increasing"},
	} {
		raw := craftContainer(t, sixMeta, tc.raw, sixSection("trees"))
		_, err := Decode(bytes.NewReader(raw))
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: heap load err = %v, want ErrCorrupt mentioning %q", tc.rule, err, tc.want)
		}
		m, err := openMappedBytes(t, raw)
		if err != nil {
			t.Errorf("%s: the mapped open read the sets section: %v", tc.rule, err)
			continue
		}
		if _, err := m.AppendAll(nil, []uint32{1, 2, 3}); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: mapped first touch err = %v, want ErrCorrupt mentioning %q", tc.rule, err, tc.want)
		}
		if sets, err := m.View(); !errors.Is(err, snapshot.ErrCorrupt) || sets != nil {
			t.Errorf("%s: mapped View = %v, %v after a failed first touch", tc.rule, sets, err)
		}
	}
	if _, err := Decode(bytes.NewReader(craftContainer(t, sixMeta, goodSets, sixSection("trees")))); err != nil {
		t.Errorf("undamaged six-set container rejected: %v", err)
	}

	// Undamaged, the same crafting path decodes.
	if _, err := Decode(bytes.NewReader(craftContainer(t, realMeta, section("sets"), ix.trie.encode()))); err != nil {
		t.Errorf("undamaged crafted container rejected: %v", err)
	}
	// Counts that promise more than the payload holds must fail before
	// anything is allocated for them.
	huge := ix.trie.encode()
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x7f // node count
	if _, err := Decode(bytes.NewReader(craftContainer(t, realMeta, section("sets"), huge))); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("node-count bomb: err = %v, want ErrCorrupt", err)
	}
}
