package ssjoin

import (
	"sort"
	"testing"

	"repro/internal/shard"
)

// shardedAll is the all-matches Search of a ShardedIndex with an error
// failing the test.
func shardedAll(t *testing.T, x *ShardedIndex, q []uint32) []Match {
	t.Helper()
	res, err := x.Search(Query{Set: q, All: true})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return res.Matches
}

// TestShardedIndexMatchesSearchIndexes pins the acceptance contract of the
// serving subsystem: QueryBatch over a sharded index returns exactly what
// querying unsharded SearchIndexes — one per partition, built with the
// per-shard seeds from shard.SeedFor — and merging by global id would
// return, for any worker count.
func TestShardedIndexMatchesSearchIndexes(t *testing.T) {
	sets := GenerateUniform(1500, 25, 50000, 61)
	sets, _ = PlantSimilarPairs(sets, 40, 0.8, 62)
	const lambda = 0.5
	const seed, shards = 9, 3

	// The reference: one plain SearchIndex per contiguous partition.
	ranges := shard.ContiguousRanges(len(sets), shards)
	ref := make([]*SearchIndex, shards)
	for k, r := range ranges {
		ref[k] = NewSearchIndex(sets[r[0]:r[1]], lambda, &SearchOptions{Seed: shard.SeedFor(seed, k)})
	}
	queries := sets[:250]
	want := make([][]Match, len(queries))
	for i, q := range queries {
		for k, r := range ranges {
			for _, m := range ref[k].QueryAll(q) {
				want[i] = append(want[i], Match{ID: m.ID + r[0], Sim: m.Sim})
			}
		}
		sort.Slice(want[i], func(a, b int) bool { return want[i][a].ID < want[i][b].ID })
	}

	for _, workers := range []int{0, 1, 2, 4, 8} {
		x := NewShardedIndex(sets, lambda, &ShardedOptions{Shards: shards, Seed: seed, Workers: workers})
		got := x.QueryBatch(queries)
		for i := range queries {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d matches, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d query %d match %d: %+v, want %+v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestSearchIndexQueryBatchDeterministic: the unsharded batch API yields
// results identical to one-at-a-time QueryAll for any worker count.
func TestSearchIndexQueryBatchDeterministic(t *testing.T) {
	sets := GenerateUniform(800, 25, 40000, 63)
	sets, _ = PlantSimilarPairs(sets, 30, 0.8, 64)
	queries := sets[:200]

	ref := NewSearchIndex(sets, 0.5, &SearchOptions{Seed: 3})
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = ref.QueryAll(q)
	}

	for _, workers := range []int{0, 2, 4, 8} {
		ix := NewSearchIndex(sets, 0.5, &SearchOptions{Seed: 3, Workers: workers})
		got := ix.QueryBatch(queries)
		for i := range queries {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d matches, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d query %d differs at %d", workers, i, j)
				}
			}
		}
	}
}

// TestShardedIndexAddAndQuery exercises the incremental path through the
// public facade.
func TestShardedIndexAddAndQuery(t *testing.T) {
	sets := GenerateUniform(600, 20, 30000, 65)
	x := NewShardedIndex(sets, 0.6, &ShardedOptions{Shards: 2, Seed: 5, MergeThreshold: 40})
	extra := GenerateUniform(100, 20, 30000, 66)
	for i := 0; i < len(extra); i += 10 {
		for j, id := range x.Add(extra[i : i+10]) {
			if id != len(sets)+i+j {
				t.Fatalf("Add id %d, want %d", id, len(sets)+i+j)
			}
		}
	}
	st := x.Stats()
	if st.Merges != 2 || st.Buffered != 20 || st.Sets != len(sets)+len(extra) {
		t.Fatalf("stats after adds: %+v", st)
	}
	for i, q := range extra {
		found := false
		for _, m := range shardedAll(t, x, q) {
			if m.ID == len(sets)+i {
				found = true
			}
		}
		if !found {
			t.Fatalf("added set %d not found", i)
		}
	}
	if x.Len() != len(sets)+len(extra) {
		t.Fatalf("Len %d, want %d", x.Len(), len(sets)+len(extra))
	}
}
