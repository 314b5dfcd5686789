package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/intset"
	"repro/internal/snapshot"
)

// TestSaveLoadRoundTrip pins the acceptance contract: for contiguous and
// hashed partitioning, any shard count and any worker count,
// Load(Save(idx)) returns byte-identical Query/QueryBatch results to the
// original index — including appends still buffered in the side shard at
// save time.
func TestSaveLoadRoundTrip(t *testing.T) {
	sets, _ := workload(900, 0.8, 301)
	extra, _ := workload(70, 0.8, 303) // 150 sets: workload plants extra pairs
	queries := append(append([][]uint32{}, sets[:150]...), extra...)

	for _, part := range []Partition{PartitionContiguous, PartitionHash} {
		for _, shards := range []int{1, 3, 5} {
			x := Build(sets, 0.5, &Options{
				Shards: shards, Partition: part, Seed: 7, MergeThreshold: 100, Workers: 4,
			})
			// First Add seals into a new shard; second stays buffered, so
			// the save covers sealed appends AND live side-shard state.
			x.Add(extra[:100])
			x.Add(extra[100:])
			if st := x.Stats(); st.Merges != 1 || st.Buffered != len(extra)-100 {
				t.Fatalf("%v/%d: setup produced %+v", part, shards, st)
			}

			dir := t.TempDir()
			if err := x.Save(dir); err != nil {
				t.Fatalf("%v/%d: Save: %v", part, shards, err)
			}
			want := x.QueryBatchErr(queries)

			for _, workers := range []int{0, 1, 4, 8} {
				y, err := Load(dir, workers)
				if err != nil {
					t.Fatalf("%v/%d/w=%d: Load: %v", part, shards, workers, err)
				}
				if y.Len() != x.Len() {
					t.Fatalf("%v/%d/w=%d: Len %d != %d", part, shards, workers, y.Len(), x.Len())
				}
				got := y.QueryBatchErr(queries)
				for i := range got {
					if !equalMatches(t, got[i], want[i]) {
						t.Fatalf("%v/%d/w=%d: query %d differs after reload", part, shards, workers, i)
					}
				}
				for _, q := range queries[:40] {
					id1, sim1, ok1 := mustQuery(t, x, q)
					id2, sim2, ok2 := mustQuery(t, y, q)
					if id1 != id2 || sim1 != sim2 || ok1 != ok2 {
						t.Fatalf("%v/%d/w=%d: Query differs after reload", part, shards, workers)
					}
				}
			}
		}
	}
}

// TestSaveLoadStatsAndResume: counters survive a reload, and ids keep
// growing from the high-water mark so appends after Load never collide.
func TestSaveLoadStatsAndResume(t *testing.T) {
	sets, _ := workload(300, 0.8, 305)
	extra, _ := workload(120, 0.8, 307)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 9, MergeThreshold: 60, Workers: 2})
	x.Add(extra) // crosses the threshold: one seal, 0 buffered

	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := x.Stats(), y.Stats()
	if ys.Sets != xs.Sets || ys.Shards != xs.Shards || ys.Appends != xs.Appends ||
		ys.Merges != xs.Merges || ys.Buffered != xs.Buffered || ys.Partition != xs.Partition {
		t.Fatalf("stats changed across reload:\n  saved  %+v\n  loaded %+v", xs, ys)
	}

	more, _ := workload(80, 0.8, 309)
	gotIDs := y.Add(more)
	wantFirst := len(sets) + len(extra)
	if gotIDs[0] != wantFirst {
		t.Fatalf("first id after reload = %d, want %d", gotIDs[0], wantFirst)
	}
	// The post-reload seal claimed a fresh slot: its seed must differ
	// from every sealed shard's (slots are never reused).
	y.Flush()
	seeds := map[uint64]int{}
	for i, sh := range y.shards {
		s := sh.seed
		if prev, dup := seeds[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, i, s)
		}
		seeds[s] = i
	}
}

// TestDeleteTombstones covers the delete semantics end to end: deleted
// ids — sealed or side-buffered — never appear in results, survive a
// save/load cycle, and compact away when the side shard seals.
func TestDeleteTombstones(t *testing.T) {
	sets, _ := workload(400, 0.8, 311)
	extra, _ := workload(30, 0.8, 313)
	x := Build(sets, 0.5, &Options{Shards: 3, Seed: 11, MergeThreshold: 500, Workers: 2})
	ids := x.Add(extra) // all buffered: threshold not reached
	if st := x.Stats(); st.Buffered != len(extra) {
		t.Fatalf("setup: %d buffered, want %d", st.Buffered, len(extra))
	}

	sealedVictim := 17   // lives in a primary shard
	sideVictim := ids[5] // lives in the unsealed side shard
	if !x.Delete(sealedVictim) || !x.Delete(sideVictim) {
		t.Fatal("Delete of live ids returned false")
	}
	if x.Delete(sealedVictim) {
		t.Error("double Delete returned true")
	}
	if x.Delete(-1) || x.Delete(1<<30) {
		t.Error("Delete of unknown ids returned true")
	}
	if st := x.Stats(); st.Deletes != 2 || st.Tombstones != 2 || st.Sets != len(sets)+len(extra)-2 {
		t.Fatalf("stats after delete: %+v", st)
	}

	checkGone := func(t *testing.T, x *Index, label string) {
		t.Helper()
		for _, victim := range []int{sealedVictim, sideVictim} {
			var q []uint32
			if victim < len(sets) {
				q = sets[victim]
			} else {
				q = extra[victim-len(sets)]
			}
			if id, _, ok := mustQuery(t, x, q); ok && id == victim {
				t.Fatalf("%s: Query returned deleted id %d", label, victim)
			}
			for _, m := range x.QueryAllErr(q) {
				if m.ID == victim {
					t.Fatalf("%s: QueryAll returned deleted id %d", label, victim)
				}
			}
			for _, ms := range x.QueryBatchErr([][]uint32{q}) {
				for _, m := range ms {
					if m.ID == victim {
						t.Fatalf("%s: QueryBatch returned deleted id %d", label, victim)
					}
				}
			}
		}
	}
	checkGone(t, x, "in-memory")

	// Tombstones persist through save/load.
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGone(t, y, "reloaded")
	if st := y.Stats(); st.Tombstones != 2 || st.Sets != x.Stats().Sets {
		t.Fatalf("reloaded stats: %+v", st)
	}

	// Sealing compacts the side-shard tombstone away; the sealed-shard
	// tombstone stays until shard compaction exists.
	y.Flush()
	if st := y.Stats(); st.Tombstones != 1 || st.Deletes != 2 {
		t.Fatalf("stats after compacting seal: %+v", st)
	}
	checkGone(t, y, "after seal")
	// The sealed shard must not contain the compacted entry physically:
	// total sealed sizes = all sets minus the one compacted side victim.
	st := y.Stats()
	sealed := 0
	for _, n := range st.ShardSizes {
		sealed += n
	}
	if want := len(sets) + len(extra) - 1; sealed != want {
		t.Fatalf("sealed sizes sum to %d, want %d (victim not compacted)", sealed, want)
	}
}

// TestDeleteEverythingInBuffer: a seal whose buffer compacts to nothing
// must not build an empty shard or leak a seed slot.
func TestDeleteEverythingInBuffer(t *testing.T) {
	sets, _ := workload(200, 0.8, 315)
	extra, _ := workload(10, 0.8, 317)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 13, MergeThreshold: 100})
	ids := x.Add(extra)
	if n := x.DeleteBatch(ids); n != len(ids) {
		t.Fatalf("DeleteBatch deleted %d, want %d", n, len(ids))
	}
	before := x.Stats()
	x.Flush()
	after := x.Stats()
	if after.Shards != before.Shards || after.Merges != before.Merges {
		t.Fatalf("empty seal built a shard: %+v -> %+v", before, after)
	}
	if after.Tombstones != 0 || after.Buffered != 0 {
		t.Fatalf("tombstones not fully compacted: %+v", after)
	}
	if after.Sets != len(sets) {
		t.Fatalf("live count %d, want %d", after.Sets, len(sets))
	}
}

// TestQueryFallbackPastTombstone: deleting the best match must not hide
// other matches living in the same shard (deleted ids are dropped before the
// answer is reduced to its best match).
func TestQueryFallbackPastTombstone(t *testing.T) {
	// Two identical sets in one shard: both match any self-query with
	// sim 1.0; delete the lower id and the other must still be found.
	base := []uint32{2, 4, 6, 8, 10, 12}
	sets := [][]uint32{base, base, {100, 200, 300}}
	x := Build(sets, 0.5, &Options{Shards: 1, Seed: 17})
	if !x.Delete(0) {
		t.Fatal("Delete(0) failed")
	}
	id, sim, ok := mustQuery(t, x, base)
	if !ok || id != 1 || sim != 1.0 {
		t.Fatalf("Query after deleting best: id=%d sim=%v ok=%v, want id=1 sim=1", id, sim, ok)
	}
}

// TestLoadCorruptionRejected: truncated shard files, flipped bytes and
// wrong format versions all produce descriptive errors from Load — never
// a panic, never a silently wrong index.
func TestLoadCorruptionRejected(t *testing.T) {
	sets, _ := workload(300, 0.8, 319)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 19, Workers: 2})
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m0, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, m0.Shards[0].File)
	pristine, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(shardPath, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Baseline loads.
	if _, err := Load(dir, 1); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}

	// Truncated shard file.
	if err := os.WriteFile(shardPath, pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("truncated shard file: err = %v, want ErrCorrupt", err)
	}
	restore()

	// Flipped byte (CRC mismatch) in the middle of the shard file.
	bad := append([]byte(nil), pristine...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(shardPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("flipped byte: err = %v, want ErrCorrupt", err)
	}
	restore()

	// Wrong container format version in the shard file.
	bad = append([]byte(nil), pristine...)
	bad[8] = 0x7f
	if err := os.WriteFile(shardPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("wrong shard version: err = %v, want ErrVersion", err)
	}
	restore()

	// Shard files swapped: the manifest seed cross-check catches it.
	other, err := os.ReadFile(filepath.Join(dir, m0.Shards[1].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("swapped shard files: err = %v, want ErrCorrupt", err)
	}
	restore()

	// Missing shard file.
	if err := os.Remove(shardPath); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); err == nil {
		t.Error("missing shard file: Load succeeded")
	}
	restore()

	// Wrong manifest version.
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.FormatVersion = 99
	// WriteManifest validates nothing; ReadManifest must reject.
	if err := snapshot.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("wrong manifest version: err = %v, want ErrVersion", err)
	}

	// Missing manifest entirely.
	if err := os.Remove(filepath.Join(dir, snapshot.ManifestFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); err == nil {
		t.Error("missing manifest: Load succeeded")
	}
}

// TestLoadIgnoresRetiredManifestKeys: a directory saved by an earlier build
// may carry manifest keys this one no longer writes — the three compaction
// knobs, the shipped-shard record of a ring that was placed on peers, and
// the tier the ring was saved under, "auto" included. They are ignored: the
// directory loads hot with no explicit tier and cold with TierCold, answers
// as the index that was saved either way, and a re-save drops them.
func TestLoadIgnoresRetiredManifestKeys(t *testing.T) {
	sets, _ := workload(300, 0.8, 343)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 41, MergeThreshold: 40, Workers: 2})
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshot.ManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // seeds are 64-bit
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	peer := "http://127.0.0.1:8402"
	m["compact_small"], m["compact_min_shards"], m["compact_tombstone_ratio"] = 7, 3, 1.5
	m["placement"] = map[string]any{
		"epoch": 2, "peers": []string{peer}, "replicas": 1, "keep_local": true,
		"shipped": []any{map[string]any{"key": "cps-0123456789abcdef-01234567", "peers": []string{peer}}},
	}
	want := x.QueryBatchErr(sets[:60])
	for _, saved := range []string{"cold", "auto"} {
		m["runtime"] = map[string]any{"tiering": saved}
		if raw, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tier := range []Tier{"", TierCold} {
			y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
			if err != nil {
				t.Fatalf("saved tier %q, load tier %q: a manifest with retired keys does not load: %v", saved, tier, err)
			}
			wantCold := 0
			if tier == TierCold {
				wantCold = len(y.shards)
			}
			if st := y.Stats(); st.ColdShards != wantCold {
				t.Fatalf("saved tier %q, load tier %q: %d cold shards, want %d", saved, tier, st.ColdShards, wantCold)
			}
			got := y.QueryBatchErr(sets[:60])
			for i := range want {
				if !equalMatches(t, got[i], want[i]) {
					t.Fatalf("saved tier %q, load tier %q: query %d differs after loading a manifest with retired keys", saved, tier, i)
				}
			}
			dir2 := t.TempDir()
			if err := y.Save(dir2); err != nil {
				t.Fatal(err)
			}
			resaved, err := os.ReadFile(filepath.Join(dir2, snapshot.ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"compact_small", "compact_min_shards", "compact_tombstone_ratio", "placement", "runtime", "tiering"} {
				if strings.Contains(string(resaved), `"`+key+`"`) {
					t.Errorf("re-saved manifest still carries %q", key)
				}
			}
		}
	}
}

// TestLoadDroppedInvariantsRejected: the manifest's dropped set must be
// disjoint from the tombstones, the side shard and every sealed shard's
// ids — a manifest violating any of these would resurrect a reclaimed id
// as live-but-undeletable data or debit the live count twice — and every
// present id lives in one place: a side shard repeating an id a shard holds,
// or one of its own, would answer that id twice.
func TestLoadDroppedInvariantsRejected(t *testing.T) {
	sets, _ := workload(60, 0.8, 337)
	extra, _ := workload(10, 0.8, 339)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 37, MergeThreshold: 100})
	x.Add(extra) // stays buffered in the side shard
	x.Delete(3)  // a genuine tombstone in a sealed shard
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m0, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(m *snapshot.Manifest)) {
		m := *m0
		mutate(&m)
		if err := snapshot.WriteManifest(dir, &m); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	droppedOnly := func(id int) []byte {
		var b intset.Bitmap
		b.Set(id)
		return b.Bytes()
	}
	// Id 0 lives in a sealed shard; claiming it was dropped is corruption.
	corrupt("dropped id present in shard", func(m *snapshot.Manifest) {
		m.DroppedBitmap = droppedOnly(0)
	})
	// Id 3 is tombstoned; dropped means its tombstone was retired.
	corrupt("id both dropped and tombstoned", func(m *snapshot.Manifest) {
		m.DroppedBitmap = droppedOnly(3)
	})
	// The first appended id sits in the side shard.
	corrupt("dropped id still in side shard", func(m *snapshot.Manifest) {
		m.DroppedBitmap = droppedOnly(len(sets))
	})
	// Id 0 lives in a sealed shard; the side shard's ids are distinct.
	corrupt("side id a shard holds", func(m *snapshot.Manifest) {
		m.Side.IDs = append([]int{0}, m.Side.IDs[1:]...)
	})
	corrupt("side id twice", func(m *snapshot.Manifest) {
		m.Side.IDs = append([]int{m.Side.IDs[1]}, m.Side.IDs[1:]...)
	})
	// A ghost tombstone: reclassifying a genuinely absent id (dropped in
	// a real snapshot) as tombstoned would debit the live count for an id
	// that exists nowhere.
	y := Build(sets, 0.5, &Options{Shards: 2, Seed: 37, MergeThreshold: 10})
	ids := y.Add(extra[:4]) // stays buffered (4 < MergeThreshold)
	y.Delete(ids[0])
	y.Flush() // seal reclaims the deleted buffered entry: ids[0] is dropped
	ghostDir := t.TempDir()
	if err := y.Save(ghostDir); err != nil {
		t.Fatal(err)
	}
	gm, err := snapshot.ReadManifest(ghostDir)
	if err != nil {
		t.Fatal(err)
	}
	dropped := gm.DroppedIDs().Ints()
	if len(dropped) != 1 {
		t.Fatalf("expected one dropped id, manifest has %v", dropped)
	}
	gm.Tombstones, gm.DroppedBitmap = dropped, nil
	if err := snapshot.WriteManifest(ghostDir, gm); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ghostDir, 1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("ghost tombstone: err = %v, want ErrCorrupt", err)
	}
	// Pristine manifest still loads.
	if err := snapshot.WriteManifest(dir, m0); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 1); err != nil {
		t.Errorf("pristine manifest failed to load: %v", err)
	}
}

// TestConcurrentSaveDeleteQuery races Save against Add, Delete and
// queries: every snapshot taken must be internally consistent and
// loadable (the race job's guard for the persistence path).
func TestConcurrentSaveDeleteQuery(t *testing.T) {
	sets, _ := workload(300, 0.8, 331)
	extra, _ := workload(100, 0.8, 333)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 31, MergeThreshold: 40, Workers: 2})
	dir := t.TempDir()

	done := make(chan error, 3)
	go func() {
		for i := range extra {
			x.Add(extra[i : i+1])
			if i%7 == 0 {
				x.Delete(i % len(sets))
			}
		}
		done <- nil
	}()
	go func() {
		for pass := 0; pass < 6; pass++ {
			if err := x.Save(dir); err != nil {
				done <- err
				return
			}
			if _, err := Load(dir, 2); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for pass := 0; pass < 4; pass++ {
			x.QueryBatchErr(sets[:40])
			for i := 0; i < len(sets); i += 11 {
				x.QueryAllErr(sets[i])
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Final save/load reflects the settled state exactly.
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != x.Len() {
		t.Fatalf("final reload Len %d != %d", y.Len(), x.Len())
	}
	want := x.QueryBatchErr(sets[:60])
	got := y.QueryBatchErr(sets[:60])
	for i := range got {
		if !equalMatches(t, got[i], want[i]) {
			t.Fatalf("query %d differs after settled reload", i)
		}
	}
}

// TestCrashedSaveLeavesPreviousSnapshotReadable: a save that dies after
// writing shard files but before the manifest must not disturb the
// previous snapshot — generations keep new files out of the old
// manifest's namespace, and the next successful save prunes the debris:
// those shard files and the temp files of the writes it was killed in
// (shard-….cps.tmp…, manifest.json.tmp…), and nothing it did not write.
func TestCrashedSaveLeavesPreviousSnapshotReadable(t *testing.T) {
	sets, _ := workload(300, 0.8, 341)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 37, Workers: 2})
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	want := x.QueryBatchErr(sets[:50])

	// Simulate the crash window of a DIFFERENT index's save: its shard
	// files landed (next generation), the manifest write never happened.
	other := Build(sets[:80], 0.5, &Options{Shards: 2, Seed: 99})
	gen, err := nextGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range other.shards {
		if err := saveShard(filepath.Join(dir, shardFileName(gen, i)), sh, other.signer); err != nil {
			t.Fatal(err)
		}
	}
	temps := []string{shardFileName(gen, 2) + ".tmp123", snapshot.ManifestFile + ".tmp9"}
	for _, name := range append(temps, "notes.txt") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The previous snapshot still loads, bit-for-bit.
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatalf("snapshot unreadable after crashed save: %v", err)
	}
	got := y.QueryBatchErr(sets[:50])
	for i := range got {
		if !equalMatches(t, got[i], want[i]) {
			t.Fatalf("query %d differs after crashed save", i)
		}
	}

	// The next successful save prunes the debris.
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cps := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".cps" {
			cps++
		}
	}
	if cps != len(m.Shards) {
		t.Fatalf("%d shard files on disk, manifest names %d (debris not pruned)", cps, len(m.Shards))
	}
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived the save (stat: %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Errorf("a file the save did not write was pruned: %v", err)
	}
}

// TestSaveOverwriteShrinks: saving a smaller index over a larger snapshot
// removes the stale extra shard files.
func TestSaveOverwriteShrinks(t *testing.T) {
	sets, _ := workload(400, 0.8, 321)
	big := Build(sets, 0.5, &Options{Shards: 6, Seed: 23})
	small := Build(sets[:100], 0.5, &Options{Shards: 2, Seed: 23})
	dir := t.TempDir()
	if err := big.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := small.Save(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".cps" {
			files++
		}
	}
	if files != 2 {
		t.Fatalf("%d shard files after shrinking save, want 2", files)
	}
	y, err := Load(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 100 {
		t.Fatalf("loaded %d sets, want 100", y.Len())
	}
}

// TestSaveLoadEmptyIndex: the degenerate cases survive the cycle.
func TestSaveLoadEmptyIndex(t *testing.T) {
	x := Build(nil, 0.5, &Options{Shards: 4, Seed: 29})
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Load(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 0 {
		t.Fatalf("empty index loaded with %d sets", y.Len())
	}
	if _, _, ok := mustQuery(t, y, []uint32{1, 2, 3}); ok {
		t.Error("reloaded empty index found a match")
	}
	ids := y.Add([][]uint32{{1, 2, 3}})
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("Add after empty reload: ids %v", ids)
	}
	if id, _, ok := mustQuery(t, y, []uint32{1, 2, 3}); !ok || id != 0 {
		t.Fatal("appended set not found after empty reload")
	}
}
