package shard

import (
	"sync"
	"testing"

	"repro/internal/race"
)

// buildCached builds an index and turns its result cache on with room for
// entries answers, the one way a cache is set.
func buildCached(t *testing.T, sets [][]uint32, o *Options, entries int) *Index {
	t.Helper()
	x := Build(sets, 0.5, o)
	if err := x.Configure(RuntimeOptions{CacheSize: entries}); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestCacheIdenticalAnswers pins the cache's core contract: with the
// cache enabled, every entry point answers byte-identically to the
// uncached index — on cold misses, warm hits, and after mutations that
// invalidate by version bump.
func TestCacheIdenticalAnswers(t *testing.T) {
	sets, _ := workload(900, 0.8, 301)
	plain := Build(sets, 0.5, &Options{Shards: 3, Seed: 9, MergeThreshold: 64})
	cached := buildCached(t, sets, &Options{Shards: 3, Seed: 9, MergeThreshold: 64}, 128)

	check := func(stage string) {
		t.Helper()
		qs := sets[:60]
		for pass := 0; pass < 2; pass++ { // cold then warm
			for i, q := range qs {
				wid, wsim, wok := mustQuery(t, plain, q)
				gid, gsim, gok := mustQuery(t, cached, q)
				if wid != gid || wsim != gsim || wok != gok {
					t.Fatalf("%s pass %d Query(%d): cached (%d,%v,%v) != plain (%d,%v,%v)",
						stage, pass, i, gid, gsim, gok, wid, wsim, wok)
				}
				if !equalMatches(t, cached.QueryAllErr(q), plain.QueryAllErr(q)) {
					t.Fatalf("%s pass %d QueryAll(%d) differs", stage, pass, i)
				}
			}
			wb := plain.QueryBatchErr(qs)
			gb := cached.QueryBatchErr(qs)
			for i := range wb {
				if !equalMatches(t, gb[i], wb[i]) {
					t.Fatalf("%s pass %d QueryBatch[%d] differs", stage, pass, i)
				}
			}
		}
	}

	check("initial")

	// Mutations must invalidate: the warm cache may not serve pre-Add or
	// pre-Delete answers.
	extra := [][]uint32{sets[0], sets[1]}
	plain.Add(extra)
	cached.Add(extra)
	check("after add")

	plain.DeleteBatch([]int{0, 5, 17})
	cached.DeleteBatch([]int{0, 5, 17})
	check("after delete")

	plain.Flush()
	cached.Flush()
	check("after flush")

	plain.Compact()
	cached.Compact()
	check("after compact")

	st := cached.Stats()
	if !st.CacheEnabled {
		t.Fatal("CacheEnabled false on a cached index")
	}
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("expected both hits and misses, got hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	if plainStats := plain.Stats(); plainStats.CacheEnabled {
		t.Fatal("CacheEnabled true on an uncached index")
	}
}

// TestCacheHitMissCounters exercises hit/miss accounting and version
// invalidation on the raw cache path.
func TestCacheHitMissCounters(t *testing.T) {
	sets, _ := workload(300, 0.8, 311)
	x := buildCached(t, sets, &Options{Shards: 2, Seed: 11}, 32)
	q := sets[3]

	mustQuery(t, x, q) // miss
	mustQuery(t, x, q) // hit
	mustQuery(t, x, q) // hit
	if _, hits, misses := x.cache.Load().stats(); hits != 2 || misses != 1 {
		t.Fatalf("after 3 queries: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Any mutation bumps the version: the same query misses once, then
	// hits again under the new version.
	x.Delete(7)
	mustQuery(t, x, q)
	mustQuery(t, x, q)
	if _, hits, misses := x.cache.Load().stats(); hits != 3 || misses != 2 {
		t.Fatalf("after delete: hits=%d misses=%d, want 3/2", hits, misses)
	}
}

// TestCacheLRUEviction fills a tiny cache past capacity and checks the
// oldest entry is the one evicted.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	sim := plan{kind: kindAll}
	q1, q2, q3 := []uint32{1}, []uint32{2}, []uint32{3}
	one := func(id int, s float64) []Match { return []Match{{ID: id, Sim: s}} }
	c.put(1, sim, q1, one(10, 0.9))
	c.put(1, sim, q2, one(20, 0.8))
	if entries, _, _ := c.stats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	// Touch q1 so q2 becomes the LRU victim.
	if _, hit := c.get(1, sim, q1); !hit {
		t.Fatal("q1 should hit")
	}
	c.put(1, sim, q3, one(30, 0.7))
	if entries, _, _ := c.stats(); entries != 2 {
		t.Fatalf("entries = %d after eviction, want 2", entries)
	}
	if _, hit := c.get(1, sim, q2); hit {
		t.Fatal("q2 should have been evicted")
	}
	if _, hit := c.get(1, sim, q1); !hit {
		t.Fatal("q1 should still be cached")
	}
	if ms, hit := c.get(1, sim, q3); !hit || len(ms) != 1 || ms[0] != (Match{ID: 30, Sim: 0.7}) {
		t.Fatalf("q3 = (%+v,%v), want [{30 0.7}]", ms, hit)
	}
	if _, hit := c.get(2, sim, q3); hit {
		t.Fatal("lookup at a newer version hit a stale entry")
	}

	// What cannot collide: a similarity and a containment answer for the
	// same set, and one containment query at two thresholds.
	c = newResultCache(8)
	half, most := plan{kind: kindContain, threshold: 0.5}, plan{kind: kindContain, threshold: 0.9}
	if _, hit := c.get(1, half, q3); hit {
		t.Fatal("empty cache hit")
	}
	c.put(1, sim, q3, one(30, 0.7))
	if _, hit := c.get(1, half, q3); hit {
		t.Fatal("containment lookup hit a similarity entry")
	}
	c.put(1, half, q3, one(31, 0.5))
	if ms, hit := c.get(1, sim, q3); !hit || ms[0].ID != 30 {
		t.Fatalf("similarity entry clobbered by a containment entry: %+v, %v", ms, hit)
	}
	if _, hit := c.get(1, most, q3); hit {
		t.Fatal("containment lookup at 0.9 hit the entry at 0.5")
	}
	c.put(1, most, q3, one(32, 0.9))
	if ms, hit := c.get(1, half, q3); !hit || ms[0].ID != 31 {
		t.Fatalf("containment entry at 0.5 clobbered by the one at 0.9: %+v, %v", ms, hit)
	}
	if ms, hit := c.get(1, most, q3); !hit || ms[0].ID != 32 {
		t.Fatalf("containment entry at 0.9: %+v, %v", ms, hit)
	}
}

// TestCacheBestSharesAllEntry: a best-of Search and an all-matches Search
// of the same set are one cache entry, so the best-of query right after the
// all-matches one is a hit and returns the top of the cached list — at λ
// and above it — and the all-matches query after a best-of one hits too.
func TestCacheBestSharesAllEntry(t *testing.T) {
	sets, _ := workload(600, 0.8, 341)
	x := buildCached(t, sets, &Options{Shards: 3, Seed: 21}, 64)
	hits := func() uint64 {
		_, h, _ := x.cache.Load().stats()
		return h
	}
	for qi, q := range sets[:40] {
		all, err := x.Search(Request{Set: q, All: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range []float64{0, 0.5, 0.7} {
			before := hits()
			var tr QueryTrace
			best, err := x.Search(Request{Set: q, Threshold: th}, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if hits() != before+1 || !tr.CacheHit {
				t.Fatalf("query %d threshold %v: best-of after all-matches missed the cache", qi, th)
			}
			want, ok := Match{ID: -1}, false
			for _, m := range all.Matches {
				if m.Sim >= th && (!ok || m.Sim > want.Sim || (m.Sim == want.Sim && m.ID < want.ID)) {
					want, ok = m, true
				}
			}
			if best.Found != ok || best.Best != want {
				t.Fatalf("query %d threshold %v: cached best-of %+v, the top of the cached list is %+v", qi, th, best, want)
			}
		}
	}
	q := sets[41]
	mustQuery(t, x, q)
	before := hits()
	if _, err := x.Search(Request{Set: q, All: true}, nil); err != nil {
		t.Fatal(err)
	}
	if hits() != before+1 {
		t.Fatal("all-matches after best-of missed the cache")
	}
}

// TestConfigureCacheAfterBuild covers the post-Load path cmd/serve uses.
func TestConfigureCacheAfterBuild(t *testing.T) {
	sets, _ := workload(200, 0.8, 321)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 13})
	if x.Stats().CacheEnabled {
		t.Fatal("cache on without CacheSize")
	}
	before := x.QueryAllErr(sets[0])
	if err := x.Configure(RuntimeOptions{CacheSize: 16}); err != nil {
		t.Fatal(err)
	}
	if !x.Stats().CacheEnabled {
		t.Fatal("cache off after Configure(CacheSize: 16)")
	}
	if !equalMatches(t, x.QueryAllErr(sets[0]), before) {
		t.Fatal("answers changed when cache enabled")
	}
	if err := x.Configure(RuntimeOptions{}); err != nil {
		t.Fatal(err)
	}
	if x.Stats().CacheEnabled {
		t.Fatal("cache on after Configure(CacheSize: 0)")
	}
}

// TestConcurrentConfigureAgrees: Configure calls racing each other leave
// Runtime reporting the cache that is installed, not another call's size
// (the options and the cache are replaced under one lock). Run it under
// -race too.
func TestConcurrentConfigureAgrees(t *testing.T) {
	sets, _ := workload(200, 0.8, 351)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 17})
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(size int) {
				defer wg.Done()
				if err := x.Configure(RuntimeOptions{CacheSize: size}); err != nil {
					t.Error(err)
				}
			}(g * 8) // one of the four turns the cache off
		}
		wg.Wait()
		installed := 0
		if c := x.cache.Load(); c != nil {
			installed = c.max
		}
		if got := x.Runtime().CacheSize; got != installed {
			t.Fatalf("round %d: Runtime().CacheSize = %d, installed cache holds %d", round, got, installed)
		}
	}
}

// TestQueryZeroAllocsAllLocal pins the serving-path allocation contract:
// on an all-local ring with no tombstones and the cache off, Query
// allocates nothing at steady state.
func TestQueryZeroAllocsAllLocal(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	sets, _ := workload(1500, 0.8, 331)
	x := Build(sets, 0.5, &Options{Shards: 3, Seed: 15})
	for i := 0; i < 30; i++ { // warm scratch pools
		mustQuery(t, x, sets[i])
	}
	qi := 0
	if n := testing.AllocsPerRun(100, func() {
		mustQuery(t, x, sets[qi%700])
		qi++
	}); n != 0 {
		t.Errorf("shard Query allocates %v/op, want 0", n)
	}
}
