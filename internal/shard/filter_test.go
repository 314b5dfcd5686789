package shard

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/race"
)

// The tests here run the ring with trees that filter (default LeafSize,
// shards well over it), where answers are approximate: a node that samples
// no position is dead and holds nothing, so what is pinned is determinism
// of the answers and a floor on their recall, not equality with brute
// force. The exact-mode suites (LeafSize above every shard) cover the
// serving machinery itself.

// TestSealedDuplicateFound is the serve_mixed add → read-back path: 128
// appended sets cross MergeThreshold, are sealed into a shard of their own,
// and each of them, queried verbatim, must come back under its id. A
// duplicate follows the query into every sampled child, so it is lost only
// if all ten trees die above it (about 1e-7 per query at λ = 0.5).
func TestSealedDuplicateFound(t *testing.T) {
	seeds := 500
	if race.Enabled || testing.Short() {
		seeds = 50
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, sets := range [][][]uint32{
			datagen.Uniform(128, 10, 209, seed).Sets,
			datagen.Zipf(128, 8, 80000, 1.0, seed).Sets,
		} {
			x := Build(nil, 0.5, &Options{Shards: 1, Seed: seed, MergeThreshold: 128})
			ids := x.Add(sets)
			if st := x.Stats(); st.Buffered != 0 || st.Merges != 1 {
				t.Fatalf("seed %d: the appends were not sealed: %+v", seed, st)
			}
			for i, q := range sets {
				ms := x.QueryAllErr(q)
				if !slices.ContainsFunc(ms, func(m Match) bool { return m.ID == ids[i] && m.Sim == 1 }) {
					t.Fatalf("seed %d: sealed set %d (%d tokens) not found by its own query", seed, ids[i], len(q))
				}
			}
		}
	}
}

// TestFilteringRingDeterministic: on filtering trees the answers are still
// a pure function of (collection, partition, shard count, seed) — the same
// bytes for any worker count, from the heap or the mapped tier, before and
// after a snapshot round trip — and they keep a recall floor against brute
// force on the planted neighbors.
func TestFilteringRingDeterministic(t *testing.T) {
	ds := datagen.Uniform(3000, 10, 209, 31)
	planted := datagen.PlantPairs(ds, 150, 0.7, 32)
	sets := ds.Sets
	queries := make([][]uint32, 0, 2*len(planted))
	for _, p := range planted {
		queries = append(queries, sets[p[0]], sets[p[1]])
	}

	for _, hash := range []bool{false, true} {
		t.Run((&Options{HashPartition: hash}).partitionName(), func(t *testing.T) {
			build := func(workers int) *Index {
				return Build(sets, 0.5, &Options{Shards: 3, HashPartition: hash, Seed: 33, Workers: workers})
			}
			base := build(0)
			if st := base.Stats(); slices.Min(st.ShardSizes) <= 32 {
				t.Fatalf("shards of %v sets do not filter", st.ShardSizes)
			}
			want := base.QueryBatchErr(queries)

			// Recall: every pair of the ring at J ≥ 0.5 the brute force sees.
			truth, hits := 0, 0
			for qi, q := range queries {
				for id, s := range sets {
					if intset.Jaccard(q, s) >= 0.5 {
						truth++
						if slices.ContainsFunc(want[qi], func(m Match) bool { return m.ID == id }) {
							hits++
						}
					}
				}
			}
			recall := float64(hits) / float64(truth)
			t.Logf("recall %.4f (%d of %d pairs at J ≥ 0.5)", recall, hits, truth)
			if recall < 0.98 {
				t.Errorf("recall %.4f below 0.98", recall)
			}

			same := func(name string, y *Index) {
				t.Helper()
				got := y.QueryBatchErr(queries)
				for i := range queries {
					if !equalMatches(t, got[i], want[i]) {
						t.Fatalf("%s: QueryBatch[%d] = %v, the sequential hot local ring says %v", name, i, got[i], want[i])
					}
				}
				assertSameAnswers(t, base, y, queries[:40])
			}
			same("workers=1", build(1))
			same("workers=4", build(4))

			dir := t.TempDir()
			if err := base.Save(dir); err != nil {
				t.Fatal(err)
			}
			for _, tier := range []Tier{TierHot, TierCold} {
				y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
				if err != nil {
					t.Fatal(err)
				}
				same("loaded "+string(tier), y)
			}
		})
	}
}
