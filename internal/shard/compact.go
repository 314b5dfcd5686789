package shard

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/intset"
)

// Compaction: the background maintenance pass that keeps a long-running
// index from degrading. Every seal appends a small shard to the ring and
// every delete against a sealed shard leaves a tombstone (a deleted id the
// shard still holds) filtered on each query — left alone, fan-out and
// memory grow monotonically (the LSM "many small sealed shards" hazard).
// Compact selects the eligible shards — small ones, and any shard whose
// tombstone ratio crossed the threshold — rebuilds them into one merged
// shard entirely outside the index lock on the shared execution layer, then
// swaps it into the ring atomically under a generation bump. Queries never
// block: in-flight queries finish against their snapshot of the old ring.
//
// The rewrite preserves the indexed content exactly: global ids are kept
// (re-sorted by global id), live sets are copied verbatim, and only sets
// in the deleted set — already invisible to every query — are dropped. A
// pass only reads that set (a dropped id stays deleted, so a later Delete of
// it is a no-op) and adds to the reclaimed count. In exact mode (LeafSize at
// or above every shard size) query results are therefore byte-identical
// before and after a pass — the model-based harness in the root package
// pins this across partition schemes, shard counts and worker counts. At
// approximate LeafSize the merged shard's fresh seed draws different
// randomized tries, so individual results can shift within recall noise,
// exactly as rebuilding any index would.

// CompactResult reports what one Compact pass did.
type CompactResult struct {
	// Merged is the number of ring shards removed or rewritten; 0 means
	// the policy found nothing eligible and the ring is unchanged.
	Merged int `json:"merged"`
	// Sets is the live set count of the merged shard (0 when every
	// victim entry was tombstoned and no merged shard was built).
	Sets int `json:"sets"`
	// Reclaimed is the number of tombstoned entries physically dropped.
	Reclaimed int `json:"reclaimed"`
	// Generation is the ring generation after the swap.
	Generation int `json:"generation"`
}

// The compaction policy. A ring shard of at most 2×MergeThreshold sets is
// small — a sealed side buffer qualifies, a full-size primary does not —
// and small shards merge once there are compactMinShards of them (merging
// fewer cannot shrink the ring). A shard of any size whose tombstoned
// fraction reaches compactTombstoneRatio is rewritten to reclaim them.
const (
	compactMinShards      = 2
	compactTombstoneRatio = 0.3
)

// Compact runs one compaction pass and reports what it did. Passes are
// serialized per index; queries, appends and saves proceed concurrently
// throughout (the rebuild holds no index lock — only the final swap takes
// the write lock briefly). The side buffer is not touched: buffered
// appends reach the ring through seals, which already reclaim their
// deleted entries.
func (x *Index) Compact() CompactResult {
	start := time.Now()
	res := x.compact()
	if m := x.metrics; m != nil {
		m.compactLat.Observe(time.Since(start))
		m.compactMerged.Add(uint64(res.Merged))
		m.compactReclaimed.Add(uint64(res.Reclaimed))
	}
	return res
}

func (x *Index) compact() CompactResult {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()

	victims, deleted := x.selectVictims()
	if len(victims) == 0 {
		x.mu.RLock()
		gen := x.generation
		x.mu.RUnlock()
		return CompactResult{Generation: gen}
	}

	// Gather the victims' live entries, re-sorted by global id so the
	// merged shard's leaf order — and therefore Query's within-shard
	// tie-break toward the lowest id — is independent of ring order.
	ids, sets, dropped := collectLive(victims, deleted)

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
		merged = x.buildShard(sets, ids, slot, x.opt.Workers)
	}

	// Swap. Between selection and here the ring can only have grown
	// (seals append; removal and replacement happen only under compactMu,
	// which we hold), so every victim is still present and pointer
	// identity selects exactly them.
	x.mu.Lock()
	gone := make(map[*localShard]struct{}, len(victims))
	for _, v := range victims {
		gone[v] = struct{}{}
	}
	ring := make([]*localShard, 0, len(x.shards)-len(victims)+1)
	for _, sh := range x.shards {
		if _, dead := gone[sh]; !dead {
			ring = append(ring, sh)
		}
	}
	if merged != nil {
		ring = append(ring, merged)
	}
	x.shards = ring
	x.reclaimed += dropped
	x.generation++
	x.version.Add(1)
	x.compactions++
	x.compactedShards += len(victims)
	res := CompactResult{
		Merged:     len(victims),
		Sets:       len(ids),
		Reclaimed:  dropped,
		Generation: x.generation,
	}
	x.mu.Unlock()
	return res
}

// selectVictims applies the compaction policy to a read snapshot of the
// ring: every small shard is a merge candidate (merged only when at least
// compactMinShards of them exist), and any shard whose tombstone ratio
// reaches compactTombstoneRatio is rewritten regardless of size. A single
// candidate with nothing to reclaim is left alone — rewriting it would
// churn bytes without improving anything.
func (x *Index) selectVictims() ([]*localShard, *intset.Bitmap) {
	x.mu.RLock()
	shards := x.shards
	deleted := x.deleted
	x.mu.RUnlock()

	small := 2 * x.opt.MergeThreshold
	var smalls, heavies []*localShard
	dead := 0
	for _, sh := range shards {
		n := len(sh.ids)
		shardDead := 0
		// The id scan only pays when deletes exist; the common post-seal
		// pass of a delete-free service stays O(shards).
		if deleted != nil {
			for _, id := range sh.ids {
				if deleted.Get(id) {
					shardDead++
				}
			}
		}
		switch {
		case n > 0 && float64(shardDead)/float64(n) >= compactTombstoneRatio:
			heavies = append(heavies, sh)
			dead += shardDead
		case n <= small:
			smalls = append(smalls, sh)
			dead += shardDead
		}
	}
	victims := heavies
	if len(smalls) >= compactMinShards {
		victims = append(victims, smalls...)
	}
	if len(victims) == 1 && dead == 0 {
		return nil, deleted
	}
	return victims, deleted
}

// collectLive gathers the victims' entries that are not in deleted, sorted
// by global id, with their sets on the heap (see heapSets), and counts the
// deleted entries being dropped.
func collectLive(victims []*localShard, deleted *intset.Bitmap) (ids []int, sets [][]uint32, dropped int) {
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
		vsets := v.heapSets()
		for i, id := range v.ids {
			if deleted.Get(id) {
				dropped++
				continue
			}
			live = append(live, entry{id, vsets[i]})
		}
	}
	slices.SortFunc(live, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
	ids, sets = make([]int, len(live)), make([][]uint32, len(live))
	for i, e := range live {
		ids[i], sets[i] = e.id, e.set
	}
	return ids, sets, dropped
}

// compactAsync runs Compact in a background goroutine after a seal under
// AutoCompact. At most one goroutine is in flight; triggers that arrive
// while a pass is running are coalesced into one follow-up pass rather
// than dropped, so a shard sealed during a running pass is compacted even
// if append traffic then stops. A pass runs only while AutoCompact is
// still set.
func (x *Index) compactAsync() {
	x.compactPending.Store(true)
	if !x.compacting.CompareAndSwap(false, true) {
		return // the in-flight goroutine will observe compactPending
	}
	go func() {
		for {
			for x.compactPending.CompareAndSwap(true, false) {
				if x.Runtime().AutoCompact {
					x.Compact()
				}
			}
			x.compacting.Store(false)
			// A trigger landing between the last CompareAndSwap and the
			// Store above saw compacting still true and returned; it must
			// not be lost. Re-acquire and loop if one did — unless a newer
			// trigger's own CompareAndSwap won, in which case its goroutine
			// owns the pending flag now.
			if !x.compactPending.Load() || !x.compacting.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}
