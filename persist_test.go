package ssjoin

import (
	"path/filepath"
	"testing"
)

// TestSearchIndexSaveLoad pins the public persistence contract of the
// monolithic index: a loaded snapshot answers every query identically to
// the index it was saved from.
func TestSearchIndexSaveLoad(t *testing.T) {
	sets := GenerateUniform(800, 25, 40000, 71)
	sets, _ = PlantSimilarPairs(sets, 30, 0.8, 72)
	ix := NewSearchIndex(sets, 0.5, &SearchOptions{Seed: 5, Workers: 4})

	path := filepath.Join(t.TempDir(), "search.cps")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		back, err := LoadSearchIndex(path, workers)
		if err != nil {
			t.Fatal(err)
		}
		want := ix.QueryBatch(sets[:200])
		got := back.QueryBatch(sets[:200])
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d: query %d: %d matches, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: query %d match %d differs", workers, i, j)
				}
			}
		}
	}

	// A corrupted file must error, not panic.
	if _, err := LoadSearchIndex(filepath.Join(t.TempDir(), "missing.cps"), 1); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

// TestShardedIndexSaveLoadDelete drives the full public lifecycle:
// build, append, delete (sealed and side-buffered ids), save, load,
// verify equivalence and tombstone filtering, then keep appending.
func TestShardedIndexSaveLoadDelete(t *testing.T) {
	sets := GenerateUniform(1000, 25, 40000, 73)
	sets, _ = PlantSimilarPairs(sets, 30, 0.8, 74)
	extra := GenerateUniform(40, 25, 40000, 75)

	ix := NewShardedIndex(sets, 0.5, &ShardedOptions{
		Shards: 3, HashPartition: true, Seed: 7, MergeThreshold: 500, Workers: 4,
	})
	ids := ix.Add(extra)

	sideVictim := ids[3]
	if !ix.Delete(5) || !ix.Delete(sideVictim) {
		t.Fatal("Delete of live ids failed")
	}
	if ix.Len() != len(sets)+len(extra)-2 {
		t.Fatalf("Len = %d after deletes", ix.Len())
	}

	dir := t.TempDir()
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadShardedIndex(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ix.Len() {
		t.Fatalf("loaded Len %d, want %d", back.Len(), ix.Len())
	}

	queries := append(append([][]uint32{}, sets[:100]...), extra...)
	want := shardedBatch(t, ix, queries)
	got := shardedBatch(t, back, queries)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d matches, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d match %d differs after reload", i, j)
			}
		}
	}
	for _, q := range [][]uint32{sets[5], extra[3]} {
		for _, m := range shardedAll(t, back, q) {
			if m.ID == 5 || m.ID == sideVictim {
				t.Fatalf("deleted id %d served after reload", m.ID)
			}
		}
	}

	// Appends continue from the id high-water mark.
	more := GenerateUniform(5, 25, 40000, 76)
	newIDs := back.Add(more)
	if newIDs[0] != len(sets)+len(extra) {
		t.Fatalf("first id after reload = %d, want %d", newIDs[0], len(sets)+len(extra))
	}
	if st := back.Stats(); st.Deletes != 2 {
		t.Fatalf("delete counter lost across reload: %+v", st)
	}
}
