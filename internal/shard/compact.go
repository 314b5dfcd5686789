package shard

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/cpindex"
	"repro/internal/snapshot"
)

// Compaction: the background maintenance pass that keeps a long-running
// index from degrading. Every seal appends a small shard to the ring and
// every delete against a sealed shard leaves a tombstone filtered on each
// query — left alone, fan-out and memory grow monotonically (the LSM
// "many small sealed shards" hazard). Compact selects the eligible shards
// — small ones, and any shard whose tombstone ratio crossed the threshold
// — rebuilds them into one merged shard entirely outside the index lock
// on the shared execution layer, then swaps it into the ring atomically
// under a generation bump. Queries never block: in-flight queries finish
// against their snapshot of the old ring, and a query that starts during
// the rebuild simply sees the old shards.
//
// The rewrite preserves the indexed content exactly: global ids are kept
// (the merged shard carries the same local→global map entries, re-sorted
// by global id), live sets are copied verbatim, and only sets that were
// already tombstoned — and therefore already invisible to every query —
// are dropped. Their tombstones retire with them, and the ids join the
// dropped set so a later Delete of the same id stays a no-op. In exact
// mode (LeafSize at or above every shard size) query results are
// therefore byte-identical before and after a pass — the model-based
// harness in the root package pins this across partition schemes, shard
// counts and worker counts. At approximate LeafSize the merged shard's
// fresh seed draws different randomized tries, so individual results can
// shift within recall noise, exactly as rebuilding any index would.

// CompactResult reports what one Compact pass did.
type CompactResult struct {
	// Merged is the number of ring shards removed or rewritten; 0 means
	// the policy found nothing eligible and the ring is unchanged.
	Merged int `json:"merged"`
	// Sets is the live set count of the merged shard (0 when every
	// victim entry was tombstoned and no merged shard was built).
	Sets int `json:"sets"`
	// Reclaimed is the number of tombstoned entries physically dropped;
	// their tombstones are retired permanently.
	Reclaimed int `json:"reclaimed"`
	// Generation is the ring generation after the swap.
	Generation int `json:"generation"`
}

// Compact runs one compaction pass and reports what it did. Passes are
// serialized per index; queries, appends and saves proceed concurrently
// throughout (the rebuild holds no index lock — only the final swap takes
// the write lock briefly). The side buffer is not touched: buffered
// appends reach the ring through seals, which already reclaim their
// deleted entries. A pass that changed a distributed ring re-places it
// before returning: the merged shard ships, and the sweep at the end of that
// pass retires the recalled victims' hosted copies.
func (x *Index) Compact() CompactResult {
	start := time.Now()
	res := x.compact()
	if m := x.metrics; m != nil {
		m.compactLat.Observe(time.Since(start))
		m.compactMerged.Add(uint64(res.Merged))
		m.compactReclaimed.Add(uint64(res.Reclaimed))
	}
	if res.Merged > 0 {
		x.keepPlaced()
	}
	return res
}

func (x *Index) compact() CompactResult {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()

	selected, tombs := x.selectVictims()
	// Remote-backed victims are recalled first: their verified container
	// bytes come back over the same fetch-back path Save uses (local copy
	// when one was kept, otherwise a checksum- and decode-verified GET
	// from a live replica), so the merge reads exactly the structure the
	// coordinator shipped. A victim whose bytes cannot be recovered right
	// now drops out of the pass — the next pass retries — and the
	// remaining selection is re-checked against the policy so a lone
	// survivor with nothing to reclaim isn't churned.
	victims := x.materializeVictims(selected, tombs)
	if len(victims) == 0 {
		x.mu.RLock()
		gen := x.generation
		x.mu.RUnlock()
		return CompactResult{Generation: gen}
	}

	// Gather the victims' live entries, re-sorted by global id so the
	// merged shard's leaf order — and therefore Query's within-shard
	// tie-break toward the lowest id — is independent of ring order.
	ids, sets, dropped := collectLive(victims, tombs)

	// Build the merged shard off-lock. It claims the next seed slot like
	// a seal does, so its seed is unique for the index's lifetime and
	// Save/Load cross-checks keep working. An all-tombstoned selection
	// builds nothing: the victims simply leave the ring.
	var merged *localShard
	if len(ids) > 0 {
		x.mu.Lock()
		slot := x.nextSlot
		x.nextSlot++
		x.mu.Unlock()
		ix := cpindex.Build(sets, x.lambda, &cpindex.Options{
			Trees:    x.opt.Trees,
			LeafSize: x.opt.LeafSize,
			T:        x.opt.T,
			Seed:     SeedFor(x.opt.Seed, slot),
			Workers:  x.opt.Workers,
		})
		merged = newLocalShard(ix, ids)
		x.attachCounters(merged)
	}

	// Swap. Between selection and here the ring can only have grown
	// (seals append; removal and replacement happen only under compactMu,
	// which we hold), so every victim is still present and pointer
	// identity selects exactly them. The tombstones of dropped entries
	// are still in x.tombs for the same reason — only this pass may
	// retire them.
	x.mu.Lock()
	gone := make(map[shardBackend]struct{}, len(victims))
	for _, v := range victims {
		gone[v.backend] = struct{}{}
	}
	ring := make([]shardBackend, 0, len(x.shards)-len(victims)+1)
	for _, sh := range x.shards {
		if _, dead := gone[sh]; !dead {
			ring = append(ring, sh)
		}
	}
	if merged != nil {
		ring = append(ring, merged)
	}
	x.shards = ring
	if len(dropped) > 0 {
		// Copy-on-write like Delete: in-flight queries may hold the old
		// map (they would filter the dropped ids anyway, but must never
		// see a map mutate under them).
		next := make(map[int]struct{}, len(x.tombs))
		for id := range x.tombs {
			next[id] = struct{}{}
		}
		for _, id := range dropped {
			delete(next, id)
		}
		if len(next) == 0 {
			x.tombs = nil
		} else {
			x.tombs = next
		}
		x.markDroppedLocked(dropped)
	}
	x.generation++
	x.version.Add(1)
	x.compactions++
	x.compactedShards += len(victims)
	res := CompactResult{
		Merged:     len(victims),
		Sets:       len(ids),
		Reclaimed:  len(dropped),
		Generation: x.generation,
	}
	x.mu.Unlock()
	return res
}

// compactVictim pairs a ring entry selected for compaction with its
// entries materialized on the heap.
type compactVictim struct {
	backend shardBackend
	ids     []int
	sets    [][]uint32
}

// materializeVictims brings every victim's sets onto the heap — a hot
// shard's own slice, a cold shard's copy out of its container, a
// remote-backed shard's retained local copy or its verified fetched-back
// decode — and re-checks the selection policy over the victims that
// materialized: a victim whose bytes cannot be read right now (fetch
// failure, corrupt container) drops out, and a selection reduced below two
// shards with nothing to reclaim is abandoned rather than churned.
func (x *Index) materializeVictims(victims []shardBackend, tombs map[int]struct{}) []compactVictim {
	out := make([]compactVictim, 0, len(victims))
	for _, v := range victims {
		local, _ := v.(*localShard)
		if r, ok := v.(*remoteShard); ok {
			if local = r.local; local == nil {
				raw, err := r.fetchSnapshot()
				if err != nil {
					continue
				}
				if local, err = decodeShardBytes(raw, snapshot.ShardEntry{Seed: r.seed, Sets: len(r.ids)}, r.total); err != nil {
					continue
				}
			}
		}
		// Queries against a cold victim that fails here will surface the
		// corruption themselves.
		if sets, err := local.res.Load().heapSets(); err == nil {
			out = append(out, compactVictim{backend: v, ids: local.ids, sets: sets})
		}
	}
	if len(out) == len(victims) {
		return out
	}
	// Some victims failed to materialize; keep the pass only if what
	// remains still merges usefully (mirrors selectVictims' final rule).
	if len(out) >= 2 {
		return out
	}
	dead := 0
	for _, v := range out {
		for _, id := range v.ids {
			if _, d := tombs[id]; d {
				dead++
			}
		}
	}
	if dead == 0 {
		return nil
	}
	return out
}

// selectVictims applies the compaction policy to a read snapshot of the
// ring: every shard at or below CompactSmall is a merge candidate
// (merged only when at least CompactMinShards of them exist, since fewer
// cannot shrink the ring), and any shard whose tombstone ratio reaches
// CompactTombstoneRatio is rewritten regardless of size. A single
// candidate with nothing to reclaim is left alone — rewriting it would
// churn bytes without improving anything.
//
// Remote-backed shards are eligible like local ones: the policy reads
// only the coordinator-side id map, and the merge recalls their
// structure over the verified fetch-back path (see materializeVictims).
// The recalled keys go unreferenced when the merged shard swaps in, and
// the placement GC sweep retires them from the peers.
func (x *Index) selectVictims() ([]shardBackend, map[int]struct{}) {
	x.mu.RLock()
	shards := x.shards
	tombs := x.tombs
	x.mu.RUnlock()

	// withDefaults (applied on both the Build and Load paths) guarantees
	// the policy knobs are set.
	small := x.opt.CompactSmall
	minShards := x.opt.CompactMinShards
	ratio := x.opt.CompactTombstoneRatio

	var smalls, heavies []shardBackend
	dead := 0
	for _, sh := range shards {
		n := sh.size()
		shardDead := 0
		// The id scan only pays when deletes exist; the common post-seal
		// pass of a delete-free service stays O(shards).
		if len(tombs) > 0 {
			for _, id := range sh.globalIDs() {
				if _, d := tombs[id]; d {
					shardDead++
				}
			}
		}
		switch {
		case n > 0 && float64(shardDead)/float64(n) >= ratio:
			heavies = append(heavies, sh)
			dead += shardDead
		case n <= small:
			smalls = append(smalls, sh)
			dead += shardDead
		}
	}
	victims := heavies
	if len(smalls) >= minShards {
		victims = append(victims, smalls...)
	}
	if len(victims) == 1 && dead == 0 {
		return nil, tombs
	}
	return victims, tombs
}

// collectLive gathers the victims' non-tombstoned entries sorted by
// global id, plus the ids of the tombstoned entries being dropped.
func collectLive(victims []compactVictim, tombs map[int]struct{}) (ids []int, sets [][]uint32, dropped []int) {
	total := 0
	for _, v := range victims {
		total += len(v.ids)
	}
	type entry struct {
		id  int
		set []uint32
	}
	live := make([]entry, 0, total)
	for _, v := range victims {
		for i, id := range v.ids {
			if _, d := tombs[id]; d {
				dropped = append(dropped, id)
				continue
			}
			live = append(live, entry{id, v.sets[i]})
		}
	}
	slices.SortFunc(live, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
	ids, sets = make([]int, len(live)), make([][]uint32, len(live))
	for i, e := range live {
		ids[i], sets[i] = e.id, e.set
	}
	slices.Sort(dropped)
	return ids, sets, dropped
}

// maintainAsync runs the maintenance a seal calls for in a background
// goroutine: Compact when AutoCompact is set, then the recorded placement
// when the ring was distributed (a compaction that changed the ring has
// re-placed it already). At most one goroutine is in flight; triggers that
// arrive while a pass is running are coalesced into one follow-up pass
// rather than dropped, so a shard sealed during a running pass is
// compacted and shipped even if append traffic then stops.
func (x *Index) maintainAsync() {
	x.maintainPending.Store(true)
	if !x.maintaining.CompareAndSwap(false, true) {
		return // the in-flight goroutine will observe maintainPending
	}
	go func() {
		for {
			for x.maintainPending.CompareAndSwap(true, false) {
				if !x.Runtime().AutoCompact || x.Compact().Merged == 0 {
					x.keepPlaced()
				}
			}
			x.maintaining.Store(false)
			// A trigger landing between the last CompareAndSwap and the
			// Store above saw maintaining still true and returned; it
			// must not be lost. Re-acquire and loop if one did — unless a
			// newer trigger's own CompareAndSwap won, in which case its
			// goroutine owns the pending flag now.
			if !x.maintainPending.Load() || !x.maintaining.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}
