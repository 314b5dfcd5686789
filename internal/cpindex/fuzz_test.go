package cpindex

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the full index codec with attacker-controlled bytes.
// The decode contract: a corrupt, truncated or wrong-version snapshot
// yields a descriptive error — never a panic, unbounded allocation or a
// structurally invalid index. Anything that does decode must be usable:
// the target runs queries against it, so a trie validator that ever let an
// out-of-range span, leaf id, position or child index through would crash
// (or hang) right here — and must answer exactly as the mapped view over
// the same bytes does.
func FuzzDecode(f *testing.F) {
	// Seed with valid snapshots of differently shaped indexes, so mutation
	// explores the format rather than rediscovering the magic: seeds 1 and
	// 99 are all real trees, at 8 both roots died (two empty leaves are the
	// whole trie), at 12 a dead root sits beside a real tree.
	dead := 0
	for _, seed := range []uint64{1, 8, 12, 99} {
		sets := [][]uint32{{1, 2, 3}, {2, 3, 4}, {5, 6}, {1, 9, 12, 40}}
		ix := Build(sets, 0.5, &Options{Trees: 2, LeafSize: 2, Seed: seed})
		dead += deadLeaves(ix)
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()*2/3]) // truncation
	}
	if dead != 3 {
		f.Fatalf("seed corpus holds %d empty leaves, built for 3", dead)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := openMappedBytes(t, data)
		if err != nil {
			t.Fatalf("bytes that decode eagerly fail to open mapped: %v", err)
		}
		// A decoded index must answer queries without panicking, obey the
		// result contract (verified sims above lambda) and agree with the
		// mapped view.
		for _, q := range [][]uint32{{1, 2, 3}, {5, 6}, {7}} {
			id, sim, ok, st := ix.QueryWithStats(q)
			if ok && (id < 0 || id >= ix.Len() || sim < ix.Lambda()) {
				t.Fatalf("decoded index returned invalid match (%d, %v)", id, sim)
			}
			if mid, msim, mok, mst, err := m.QueryWithStats(q); err != nil || mid != id || msim != sim || mok != ok || mst != st {
				t.Fatalf("Query(%v): mapped (%d,%v,%v,%+v,%v) != decoded (%d,%v,%v,%+v)", q, mid, msim, mok, mst, err, id, sim, ok, st)
			}
			all := ix.QueryAll(q)
			for _, match := range all {
				if match.ID < 0 || match.ID >= ix.Len() || match.Sim < ix.Lambda() {
					t.Fatalf("decoded index returned invalid match %+v", match)
				}
			}
			if mall, err := m.AppendAll(nil, q); err != nil || !matchesEqual(mall, all) {
				t.Fatalf("QueryAll(%v): mapped %v (%v) != decoded %v", q, mall, err, all)
			}
		}
	})
}
