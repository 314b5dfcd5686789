package ssjoin

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/intset"
)

// queryTestIndex builds a small index with planted containment structure:
// base sets plus strict supersets and subsets of set 0.
func queryTestIndex(t *testing.T) (*ShardedIndex, [][]uint32) {
	t.Helper()
	sets := [][]uint32{
		{1, 2, 3, 4, 5, 6},       // 0
		{1, 2, 3, 4, 5, 6, 7, 8}, // 1: superset of 0
		{1, 2, 3},                // 2: subset of 0
		{10, 11, 12, 13},         // 3: disjoint
		{4, 5, 6, 7},             // 4: overlaps 0 and 1
	}
	ix := NewShardedIndex(sets, 0.5, &ShardedOptions{
		Shards: 2, Seed: 99, Trees: 2, LeafSize: 1 << 20, Workers: 2,
	})
	return ix, sets
}

func TestSearchSimilarityModes(t *testing.T) {
	ix, sets := queryTestIndex(t)
	// With the result cache on, repeated queries are served from shared
	// entries — which the facade must never hand out.
	if err := ix.Configure(RuntimeOptions{CacheSize: 8}); err != nil {
		t.Fatal(err)
	}

	// Zero value = best-of similarity at λ.
	res, err := ix.Search(Query{Set: sets[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Best.ID != 0 || res.Best.Sim != 1.0 {
		t.Fatalf("self best-of = %+v", res)
	}

	// All similarity: every match over λ, ascending id.
	res, err = ix.Search(Query{Set: sets[0], All: true})
	if err != nil {
		t.Fatal(err)
	}
	wantAll := []Match{{ID: 0, Sim: 1}, {ID: 1, Sim: 0.75}, {ID: 2, Sim: 0.5}}
	if !res.Found || !slices.Equal(res.Matches, wantAll) {
		t.Fatalf("all-search %+v, want %v", res, wantAll)
	}
	// The caller owns the match list: scribbling on it changes no later answer.
	res.Matches[0] = Match{ID: 99}
	if again, _ := ix.Search(Query{Set: sets[0], All: true}); !slices.Equal(again.Matches, wantAll) {
		t.Fatalf("answer changed after the caller modified a result: %v", again.Matches)
	}

	// An explicit threshold above λ narrows: only matches at that
	// similarity or higher survive, and best-of misses entirely when the
	// best similarity is below it.
	res, err = ix.Search(Query{Set: sets[0], All: true, Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != 0 {
		t.Fatalf("tightened all-search kept %+v, want the exact self match", res.Matches)
	}
	// {4,5,6} best-matches set 4 at J=0.75 — over λ, under 0.99.
	res, err = ix.Search(Query{Set: []uint32{4, 5, 6}, Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Best.ID != -1 {
		t.Fatalf("tightened best-of found %+v, want miss", res)
	}

	// Limit re-ranks by score.
	res, err = ix.Search(Query{Set: sets[0], All: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != 0 || res.Matches[0].Sim != 1.0 {
		t.Fatalf("limit=1 kept %+v, want the self match", res.Matches)
	}

	// Thresholds below λ (the index cannot see there) and above 1 are
	// invalid; so are unknown modes.
	if _, err := ix.Search(Query{Set: sets[0], Threshold: 0.1}); err == nil ||
		!strings.Contains(err.Error(), "similarity threshold") {
		t.Fatalf("sub-λ threshold: %v", err)
	}
	if _, err := ix.Search(Query{Set: sets[0], Threshold: 1.5}); err == nil {
		t.Fatal("threshold 1.5 accepted")
	}
	if _, err := ix.Search(Query{Set: sets[0], Mode: "fuzzy"}); err == nil ||
		!strings.Contains(err.Error(), "unknown query mode") {
		t.Fatalf("unknown mode: %v", err)
	}
}

func TestSearchContainment(t *testing.T) {
	ix, sets := queryTestIndex(t)

	// Sets 0 and 1 fully contain set 2's tokens; set 0's probe finds its
	// supersets. Scores are the exact containment values.
	res, err := ix.Search(Query{Set: sets[2], Mode: ModeContainment, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	wantFull := map[int]bool{0: true, 1: true, 2: true}
	if !res.Found || len(res.Matches) != len(wantFull) {
		t.Fatalf("full-containment matches %+v, want ids 0,1,2", res.Matches)
	}
	for _, m := range res.Matches {
		if !wantFull[m.ID] || m.Sim != 1.0 {
			t.Fatalf("full-containment match %+v", m)
		}
	}

	// At a lower threshold the answers equal brute force exactly on this
	// tiny collection (every set is also a buffered-or-sealed candidate at
	// this size; the structural guarantee tested here is exactness of the
	// returned scores and ordering).
	res, err = ix.Search(Query{Set: sets[0], Mode: ModeContainment, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Matches {
		if i > 0 && res.Matches[i-1].ID >= m.ID {
			t.Fatalf("containment matches not ascending: %v", res.Matches)
		}
		sim, ok := intset.ContainmentAtLeast(sets[0], sets[m.ID], 0.5)
		if !ok || sim != m.Sim {
			t.Fatalf("match %+v disagrees with exact containment %v/%v", m, sim, ok)
		}
	}

	// Containment needs an explicit threshold in (0,1].
	for _, bad := range []float64{0, -1, 1.01} {
		if _, err := ix.Search(Query{Set: sets[2], Mode: ModeContainment, Threshold: bad}); err == nil {
			t.Fatalf("containment threshold %v accepted", bad)
		}
	}

	// Unnormalized input is normalized on entry.
	a, _ := ix.Search(Query{Set: []uint32{3, 1, 2, 2, 1}, Mode: ModeContainment, Threshold: 1.0})
	b, _ := ix.Search(Query{Set: []uint32{1, 2, 3}, Mode: ModeContainment, Threshold: 1.0})
	if !a.Found || !slices.Equal(a.Matches, b.Matches) {
		t.Fatalf("unnormalized probe answers %v, normalized %v", a.Matches, b.Matches)
	}
}

// TestConfigureFacade: the runtime configuration goes through the facade
// in one validated call — an invalid one is rejected and changes nothing —
// and Runtime reports what was applied.
func TestConfigureFacade(t *testing.T) {
	ix, _ := queryTestIndex(t)
	if err := ix.Configure(RuntimeOptions{CacheSize: -3}); err == nil {
		t.Fatal("negative cache size accepted")
	}
	if got := ix.Runtime(); got != (RuntimeOptions{}) {
		t.Fatalf("a rejected Configure changed the runtime options: %+v", got)
	}
	want := RuntimeOptions{AutoCompact: true, CacheSize: 8}
	if err := ix.Configure(want); err != nil {
		t.Fatal(err)
	}
	if got := ix.Runtime(); got != want {
		t.Fatalf("Runtime() = %+v, want %+v", got, want)
	}
	if !ix.Stats().CacheEnabled {
		t.Fatal("cache off after Configure(CacheSize: 8)")
	}
}
