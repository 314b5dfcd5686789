package shard

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/intset"
	"repro/internal/tabhash"
)

// resultCache is the hot-query result cache: a size-bounded LRU keyed on
// (index version, plan kind, plan threshold, query), so a best-match, an
// all-matches and a containment answer for the same set — or the same
// containment query at two thresholds — never collide. The version is
// bumped by every result-affecting mutation — appends, deletes, seals,
// compaction swaps — so invalidation is free: entries
// computed at an older version simply stop being found and age out of the
// LRU. The map key is a 64-bit hash; the entry stores the exact tuple it
// was computed for and a lookup verifies it, so a hash collision degrades
// to a miss, never to a wrong answer.
//
// Cached match lists are returned without copying and are read-only: the
// pipeline only reads them, Search narrows and ranks into fresh slices,
// the HTTP server only marshals, and the public ssjoin facade clones at
// its boundary.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[uint64]*list.Element
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key       uint64
	version   uint64
	kind      queryKind
	threshold float64
	q         []uint32 // private copy of the query
	res       Result
}

func newResultCache(maxEntries int) *resultCache {
	return &resultCache{
		max:     maxEntries,
		ll:      list.New(),
		entries: make(map[uint64]*list.Element),
	}
}

// cacheKey hashes (version, kind, threshold, query) with chained avalanche
// mixing. Collisions only cost a miss (get verifies the stored tuple).
func cacheKey(version uint64, p plan, q []uint32) uint64 {
	h := tabhash.Mix64(version ^ uint64(p.kind)<<56 ^ 0x9e3779b97f4a7c15)
	h = tabhash.Mix64(h ^ math.Float64bits(p.threshold))
	for _, w := range q {
		h = tabhash.Mix64(h ^ uint64(w))
	}
	return h ^ uint64(len(q))
}

// get returns the verified entry for (version, plan, query), marking it
// most recently used, and counts the hit or miss.
func (c *resultCache) get(version uint64, p plan, q []uint32) (Result, bool) {
	key := cacheKey(version, p, q)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.version == version && e.kind == p.kind && e.threshold == p.threshold && intset.Equal(e.q, q) {
			c.ll.MoveToFront(el)
			c.hits++
			return e.res, true
		}
	}
	c.misses++
	return Result{}, false
}

// put inserts or replaces the entry for (version, plan, query) — keeping
// a private copy of the query — and evicts from the LRU tail past
// capacity.
func (c *resultCache) put(version uint64, p plan, q []uint32, res Result) {
	e := &cacheEntry{
		key:       cacheKey(version, p, q),
		version:   version,
		kind:      p.kind,
		threshold: p.threshold,
		q:         append([]uint32(nil), q...),
		res:       res,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) stats() (entries int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
