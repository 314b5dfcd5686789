package shard

import (
	"testing"

	"repro/internal/race"
)

// TestCacheIdenticalAnswers pins the cache's core contract: with the
// cache enabled, every entry point answers byte-identically to the
// uncached index — on cold misses, warm hits, and after mutations that
// invalidate by version bump.
func TestCacheIdenticalAnswers(t *testing.T) {
	sets, _ := workload(900, 0.8, 301)
	plain := Build(sets, 0.5, &Options{Shards: 3, Seed: 9, MergeThreshold: 64})
	cached := Build(sets, 0.5, &Options{Shards: 3, Seed: 9, MergeThreshold: 64, CacheSize: 128})

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
				if !equalMatches(t, mustQueryAll(t, cached, q), mustQueryAll(t, plain, q)) {
					t.Fatalf("%s pass %d QueryAll(%d) differs", stage, pass, i)
				}
			}
			wb := mustQueryBatch(t, plain, qs)
			gb := mustQueryBatch(t, cached, qs)
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
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 11, CacheSize: 32})
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
	best := plan{kind: kindBest}
	q1, q2, q3 := []uint32{1}, []uint32{2}, []uint32{3}
	found := func(id int, sim float64) Result { return Result{Found: true, Best: Match{ID: id, Sim: sim}} }
	c.put(1, best, q1, found(10, 0.9))
	c.put(1, best, q2, found(20, 0.8))
	if entries, _, _ := c.stats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	// Touch q1 so q2 becomes the LRU victim.
	if _, hit := c.get(1, best, q1); !hit {
		t.Fatal("q1 should hit")
	}
	c.put(1, best, q3, found(30, 0.7))
	if entries, _, _ := c.stats(); entries != 2 {
		t.Fatalf("entries = %d after eviction, want 2", entries)
	}
	if _, hit := c.get(1, best, q2); hit {
		t.Fatal("q2 should have been evicted")
	}
	if _, hit := c.get(1, best, q1); !hit {
		t.Fatal("q1 should still be cached")
	}
	if res, hit := c.get(1, best, q3); !hit || res.Best != (Match{ID: 30, Sim: 0.7}) || !res.Found {
		t.Fatalf("q3 = (%+v,%v), want (30,0.7,true,true)", res, hit)
	}
	// Same query, different kind or threshold: distinct entries.
	c.put(1, plan{kind: kindAll}, q3, Result{Found: true, Best: Match{ID: -1}, Matches: []Match{{ID: 30, Sim: 0.7}}})
	if res, hit := c.get(1, plan{kind: kindAll}, q3); !hit || len(res.Matches) != 1 || res.Matches[0].ID != 30 {
		t.Fatalf("get all(q3) = %+v, %v", res, hit)
	}
	if _, hit := c.get(1, best, q3); !hit {
		t.Fatal("best entry clobbered by all entry")
	}
	if _, hit := c.get(1, plan{kind: kindContain, threshold: 0.5}, q3); hit {
		t.Fatal("containment lookup hit a similarity entry")
	}
	if _, hit := c.get(2, best, q3); hit {
		t.Fatal("lookup at a newer version hit a stale entry")
	}
}

// TestConfigureCacheAfterBuild covers the post-Load path cmd/serve uses.
func TestConfigureCacheAfterBuild(t *testing.T) {
	sets, _ := workload(200, 0.8, 321)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 13})
	if x.Stats().CacheEnabled {
		t.Fatal("cache on without CacheSize")
	}
	before := mustQueryAll(t, x, sets[0])
	if err := x.Configure(RuntimeOptions{CacheSize: 16}); err != nil {
		t.Fatal(err)
	}
	if !x.Stats().CacheEnabled {
		t.Fatal("cache off after Configure(CacheSize: 16)")
	}
	if !equalMatches(t, mustQueryAll(t, x, sets[0]), before) {
		t.Fatal("answers changed when cache enabled")
	}
	if err := x.Configure(RuntimeOptions{}); err != nil {
		t.Fatal(err)
	}
	if x.Stats().CacheEnabled {
		t.Fatal("cache on after Configure(CacheSize: 0)")
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
