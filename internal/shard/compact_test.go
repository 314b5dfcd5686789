package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cpindex"
)

// exactOptions returns options whose LeafSize exceeds every shard size,
// so each tree is a single exactly-scanned leaf and query results are
// exact (recall 1.0). That makes byte-identical before/after comparisons
// meaningful: any drift is a merge/tombstone bug, never recall noise.
func exactOptions(shards, mergeThreshold int, seed uint64) *Options {
	return &Options{
		Shards:         shards,
		MergeThreshold: mergeThreshold,
		Trees:          2,
		LeafSize:       1 << 20,
		Seed:           seed,
		Workers:        2,
	}
}

// churn builds an index in exact mode, seals several small shards via
// Add, and deletes every third appended id — the workload compaction
// exists for. It returns the index, the probe queries and the deleted
// ids.
func churn(t *testing.T, opt *Options) (*Index, [][]uint32, []int) {
	t.Helper()
	sets, _ := workload(400, 0.8, 301)
	extra, _ := workload(240, 0.8, 303)
	x := Build(sets, 0.5, opt)
	for i := 0; i < len(extra); i += 40 {
		end := i + 40
		if end > len(extra) {
			end = len(extra)
		}
		x.Add(extra[i:end])
	}
	var deleted []int
	for id := len(sets); id < len(sets)+len(extra); id += 3 {
		x.Delete(id)
		deleted = append(deleted, id)
	}
	probes := append(append([][]uint32{}, sets[:120]...), extra...)
	return x, probes, deleted
}

// TestCompactEquivalence pins the tentpole contract: a compaction pass
// shrinks the ring and changes no answers — Query and QueryBatch results
// are byte-identical before and after, the deleted ids stay deleted, and
// the live count is untouched.
func TestCompactEquivalence(t *testing.T) {
	opt := exactOptions(2, 40, 41)
	x, probes, _ := churn(t, opt)

	before := x.Stats()
	if before.Shards < 4 {
		t.Fatalf("churn produced only %d shards, want several seals", before.Shards)
	}
	wantBatch := mustQueryBatch(t, x, probes)
	wantBest := make([][3]any, len(probes))
	for i, q := range probes {
		id, sim, ok := mustQuery(t, x, q)
		wantBest[i] = [3]any{id, sim, ok}
	}

	res := x.Compact()
	if res.Merged < 2 {
		t.Fatalf("Compact merged %d shards, want >= 2 (result %+v)", res.Merged, res)
	}
	if res.Reclaimed == 0 {
		t.Fatal("Compact reclaimed no tombstones despite deletes in sealed shards")
	}
	after := x.Stats()
	if after.Shards >= before.Shards {
		t.Fatalf("ring did not shrink: %d -> %d shards", before.Shards, after.Shards)
	}
	if after.Sets != before.Sets {
		t.Fatalf("live count changed: %d -> %d", before.Sets, after.Sets)
	}
	if after.Tombstones != before.Tombstones-res.Reclaimed {
		t.Fatalf("tombstones %d, want %d-%d", after.Tombstones, before.Tombstones, res.Reclaimed)
	}
	if after.Compactions != 1 || after.CompactedShards != res.Merged || after.Reclaimed < res.Reclaimed {
		t.Fatalf("compaction counters wrong: %+v vs result %+v", after, res)
	}
	if after.Generation <= before.Generation {
		t.Fatalf("generation did not bump: %d -> %d", before.Generation, after.Generation)
	}

	got := mustQueryBatch(t, x, probes)
	for i := range probes {
		if !equalMatches(t, got[i], wantBatch[i]) {
			t.Fatalf("query %d: QueryBatch changed across Compact: %v != %v", i, got[i], wantBatch[i])
		}
		id, sim, ok := mustQuery(t, x, probes[i])
		if w := wantBest[i]; id != w[0] || sim != w[1] || ok != w[2] {
			t.Fatalf("query %d: Query changed across Compact: (%d %v %v) != %v", i, id, sim, ok, w)
		}
	}

	// A second pass finds at most the merged shard, which is no longer
	// small and carries no tombstones: nothing eligible, ring unchanged.
	res2 := x.Compact()
	if st := x.Stats(); res2.Merged != 0 && st.Shards > after.Shards {
		t.Fatalf("second Compact grew the ring: %+v -> %+v", after, st)
	}
}

// TestCompactTombstoneRatioRewritesLargeShard: a shard above the small-shard
// size (2×MergeThreshold) is still rewritten once enough of it is deleted,
// reclaiming the tombstones without touching answers.
func TestCompactTombstoneRatioRewritesLargeShard(t *testing.T) {
	sets, _ := workload(600, 0.8, 307)
	// Two 300-set shards over a merge threshold of 100: nothing is "small",
	// so only the ratio can trigger.
	x := Build(sets, 0.5, exactOptions(2, 100, 43))
	// Delete 40% of shard 0 (ids 0..299 under the contiguous partition).
	for id := 0; id < 300; id += 5 {
		x.Delete(id)
		x.Delete(id + 1)
	}
	probes := sets[:150]
	want := mustQueryBatch(t, x, probes)

	res := x.Compact()
	if res.Merged != 1 || res.Reclaimed != 120 {
		t.Fatalf("Compact = %+v, want 1 shard rewritten with 120 reclaimed", res)
	}
	st := x.Stats()
	if st.Shards != 2 {
		t.Fatalf("ring has %d shards, want 2 (rewrite, not removal)", st.Shards)
	}
	if st.Tombstones != 0 {
		t.Fatalf("tombstones not reclaimed: %d left", st.Tombstones)
	}
	got := mustQueryBatch(t, x, probes)
	for i := range probes {
		if !equalMatches(t, got[i], want[i]) {
			t.Fatalf("query %d changed across ratio-triggered rewrite", i)
		}
	}
}

// TestCompactAllTombstonedShards: when every set of the victim shards is
// deleted, compaction builds nothing — the victims just leave the ring —
// and queries that used to rescan past dead matches now miss cleanly.
func TestCompactAllTombstonedShards(t *testing.T) {
	sets := [][]uint32{{1, 2, 3}, {1, 2, 4}, {50, 51}, {60, 61}}
	x := Build(sets, 0.5, exactOptions(2, 100, 47))
	x.Delete(0)
	x.Delete(1)
	res := x.Compact()
	if res.Merged == 0 || res.Reclaimed != 2 {
		t.Fatalf("Compact = %+v, want both tombstones reclaimed", res)
	}
	if id, _, ok := mustQuery(t, x, []uint32{1, 2, 3}); ok {
		t.Fatalf("query found id %d in a fully deleted shard", id)
	}
	if id, _, ok := mustQuery(t, x, []uint32{50, 51}); !ok || id != 2 {
		t.Fatalf("live set lost across compaction: id=%d ok=%v", id, ok)
	}
	if st := x.Stats(); st.Sets != 2 || st.Tombstones != 0 {
		t.Fatalf("unexpected stats after all-dead compaction: %+v", st)
	}
	// A no-op follow-up pass still reports the current ring generation,
	// not zero — clients use it as the superseded-snapshot signal.
	if noop := x.Compact(); noop.Merged != 0 || noop.Generation != res.Generation {
		t.Fatalf("no-op Compact = %+v, want merged=0 generation=%d", noop, res.Generation)
	}
}

// TestQueryDeadBestMatchRescan is the regression suite for the Query
// rescan path: when a shard's chosen best match is tombstoned the shard
// is rescanned for its best live match, and when *every* match in the
// shard is tombstoned the shard must contribute no match — never a dead
// id, before or after compaction reclaims the tombstones.
func TestQueryDeadBestMatchRescan(t *testing.T) {
	q := []uint32{1, 2, 3, 4}
	sets := [][]uint32{
		{1, 2, 3, 4},    // 0: sim 1.0 — the best match, to be deleted
		{1, 2, 3, 4, 5}, // 1: sim 0.8 — best live match after the delete
		{90, 91},        // 2: filler so the shard isn't all-matches
	}
	x := Build(sets, 0.5, exactOptions(1, 100, 53))
	x.Delete(0)
	if id, sim, ok := mustQuery(t, x, q); !ok || id != 1 || sim != 0.8 {
		t.Fatalf("rescan past dead best: got id=%d sim=%v ok=%v, want id=1 sim=0.8", id, sim, ok)
	}

	// Every match tombstoned: the shard must report no match.
	x.Delete(1)
	if id, _, ok := mustQuery(t, x, q); ok {
		t.Fatalf("all matches dead, Query still returned id=%d", id)
	}
	if ms := mustQueryAll(t, x, q); len(ms) != 0 {
		t.Fatalf("all matches dead, QueryAll returned %v", ms)
	}

	// Same, with the live answer in a different shard: the dead shard
	// contributes nothing, the live shard's match wins.
	y := Build([][]uint32{{1, 2, 3, 4}, {1, 2, 3, 4, 5, 6}}, 0.5, exactOptions(2, 100, 59))
	y.Delete(0)
	if id, sim, ok := mustQuery(t, y, q); !ok || id != 1 || sim < 0.5 {
		t.Fatalf("live match in other shard lost: id=%d sim=%v ok=%v", id, sim, ok)
	}

	// After compaction reclaims the dead entries the answers must hold.
	x.Compact()
	if id, _, ok := mustQuery(t, x, q); ok {
		t.Fatalf("after compaction, Query resurrected id=%d", id)
	}
	if id, _, ok := mustQuery(t, x, []uint32{90, 91}); !ok || id != 2 {
		t.Fatalf("live filler lost after compaction: id=%d ok=%v", id, ok)
	}
}

// TestDeleteIdempotentAfterReclaim is the regression test for the
// dropped-id accounting bug: once a deleted entry is physically
// reclaimed (by a seal compacting the buffer, or by Compact rewriting a
// shard) its tombstone retires — a second Delete of the same id must be
// a no-op, not a fresh tombstone that corrupts the live count.
func TestDeleteIdempotentAfterReclaim(t *testing.T) {
	// Seal-path reclaim.
	sets := [][]uint32{{1, 2}, {3, 4}}
	x := Build(sets, 0.5, &Options{Shards: 1, Seed: 61, MergeThreshold: 100})
	x.Add([][]uint32{{5, 6}}) // id 2, buffered
	if !x.Delete(2) {
		t.Fatal("first Delete(2) should report live")
	}
	x.Flush() // seal drops the dead entry and retires its tombstone
	if x.Delete(2) {
		t.Error("Delete of a seal-reclaimed id reported live")
	}
	if n := x.Len(); n != 2 {
		t.Errorf("Len()=%d after double delete, want 2", n)
	}
	if st := x.Stats(); st.Reclaimed != 1 || st.Tombstones != 0 {
		t.Errorf("reclaim accounting wrong: %+v", st)
	}

	// Compaction-path reclaim.
	y, _, dead := churn(t, exactOptions(2, 40, 67))
	before := y.Len()
	res := y.Compact()
	if res.Reclaimed == 0 {
		t.Fatal("compaction reclaimed nothing")
	}
	redeleted := 0
	for _, id := range dead {
		if y.Delete(id) {
			redeleted++
		}
	}
	if redeleted != 0 {
		t.Errorf("%d compaction-reclaimed ids accepted a second delete", redeleted)
	}
	if n := y.Len(); n != before {
		t.Errorf("Len drifted %d -> %d across idempotent deletes", before, n)
	}
}

// TestCompactSaveLoad: snapshots taken after — and concurrently with — a
// compaction restore an index that answers identically.
func TestCompactSaveLoad(t *testing.T) {
	x, probes, dead := churn(t, exactOptions(2, 40, 71))
	want := mustQueryBatch(t, x, probes)

	// Save racing the compaction: the snapshot sees the old or the new
	// ring, both of which answer identically.
	dir := t.TempDir()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		x.Compact()
	}()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	mid, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := mustQueryBatch(t, mid, probes)
	for i := range probes {
		if !equalMatches(t, got[i], want[i]) {
			t.Fatalf("query %d differs after mid-compaction save/load", i)
		}
	}

	// Save after the compaction: the manifest carries the merged shard,
	// the retired tombstones and the dropped ids.
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	post, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	got = mustQueryBatch(t, post, probes)
	for i := range probes {
		if !equalMatches(t, got[i], want[i]) {
			t.Fatalf("query %d differs after post-compaction save/load", i)
		}
	}
	ls, xs := post.Stats(), x.Stats()
	if ls.Shards != xs.Shards || ls.Tombstones != xs.Tombstones ||
		ls.Compactions != xs.Compactions || ls.Reclaimed != xs.Reclaimed ||
		ls.Generation != xs.Generation || ls.Sets != xs.Sets {
		t.Fatalf("loaded stats %+v != live stats %+v", ls, xs)
	}
	// Deleted ids must stay deleted across the round trip — reclaimed
	// ones via the dropped set, unreclaimed ones via their tombstones.
	for _, id := range dead {
		if post.Delete(id) {
			t.Fatalf("deleted id %d deletable again after load: %+v", id, post.Stats())
		}
	}
}

// TestCompactConcurrentServing races queries, batch queries, appends and
// deletes against repeated compactions — the serving guarantee is that
// none of them ever block on a compaction or observe a dead id.
func TestCompactConcurrentServing(t *testing.T) {
	sets, _ := workload(300, 0.8, 401)
	extra, _ := workload(300, 0.8, 403)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 73, MergeThreshold: 30, Workers: 2})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := range extra {
			ids := x.Add(extra[i : i+1])
			if i%4 == 0 {
				x.Delete(ids[0])
			}
		}
	}()
	go func() {
		defer wg.Done()
		for pass := 0; pass < 8; pass++ {
			x.Compact()
		}
	}()
	go func() {
		defer wg.Done()
		deadSince := len(sets)
		for pass := 0; pass < 6; pass++ {
			for i := 0; i < len(sets); i += 7 {
				if _, sim, ok := mustQuery(t, x, sets[i]); !ok || sim < 0.5 {
					t.Errorf("self-query %d lost during compaction churn", i)
					return
				}
			}
			for _, ms := range mustQueryBatch(t, x, extra[:40]) {
				for _, m := range ms {
					if m.ID >= deadSince && (m.ID-deadSince)%4 == 0 {
						// The add/delete goroutine may not have deleted it
						// yet; a returned id only proves it was live at
						// snapshot time, so no assertion — this loop is
						// here for the race detector.
						_ = m
					}
				}
			}
		}
	}()
	wg.Wait()
	st := x.Stats()
	if st.Sets != len(sets)+len(extra)-len(extra)/4 {
		t.Fatalf("live count drifted: %+v", st)
	}
	if deleted := x.DeleteBatch([]int{-1, 1 << 30}); deleted != 0 {
		t.Fatalf("out-of-range deletes reported %d live", deleted)
	}
}

// TestAutoCompact: with AutoCompact on, sealing past the policy
// thresholds triggers a background pass that shrinks the ring without
// any Compact call, and answers are unchanged.
func TestAutoCompact(t *testing.T) {
	sets, _ := workload(60, 0.8, 405)
	extra, _ := workload(240, 0.8, 407)
	x := Build(sets, 0.5, exactOptions(1, 30, 79))
	if err := x.Configure(RuntimeOptions{AutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(extra); i += 30 {
		end := i + 30
		if end > len(extra) {
			end = len(extra)
		}
		x.Add(extra[i:end])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := x.Stats()
		if st.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every appended set remains findable under its global id.
	for i, q := range extra {
		found := false
		for _, m := range mustQueryAll(t, x, q) {
			if m.ID == len(sets)+i {
				found = true
			}
		}
		if !found {
			t.Fatalf("appended set %d lost after auto-compaction", i)
		}
	}
}

// TestCompactPreservesStandaloneEquivalence: after compaction the merged
// shard is just another cpindex — rebuilt standalone with the same sets
// and seed it answers identically, pinning the determinism discipline.
func TestCompactPreservesStandaloneEquivalence(t *testing.T) {
	x, _, _ := churn(t, exactOptions(2, 40, 83))
	st := x.Stats()
	res := x.Compact()
	if res.Merged == 0 {
		t.Fatalf("nothing compacted: %+v", st)
	}
	x.mu.RLock()
	merged := x.shards[len(x.shards)-1].res.hot
	x.mu.RUnlock()
	if merged.Len() != res.Sets {
		t.Fatalf("merged shard holds %d sets, result says %d", merged.Len(), res.Sets)
	}
	standalone := cpindex.Build(merged.Sets(), x.Lambda(), &cpindex.Options{
		Trees:    x.opt.Trees,
		LeafSize: x.opt.LeafSize,
		T:        x.opt.T,
		Seed:     merged.Options().Seed,
	})
	for qi := 0; qi < 50; qi++ {
		q := merged.Sets()[qi*merged.Len()/50]
		a, b := merged.QueryAll(q), standalone.QueryAll(q)
		if !equalMatches(t, a, b) {
			t.Fatalf("merged shard diverges from standalone rebuild on query %d", qi)
		}
	}
}
