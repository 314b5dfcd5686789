package shard

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// waitFor polls cond until it holds or the deadline passes — the
// background tests' only clock dependence, so they stay fast when the
// condition is already true and robust on slow machines.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ringPlacement snapshots the current ring's remote-backed placement:
// shard key -> the peers its replicas live on.
func ringPlacement(x *Index) map[string][]string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make(map[string][]string)
	for _, sh := range x.shards {
		if r, ok := sh.(*remoteShard); ok {
			out[r.key] = append([]string(nil), r.replicas...)
		}
	}
	return out
}

// hostedExactly reports whether every peer hosts exactly the keys the
// current ring assigns it — the placement-GC invariant: no superseded
// key survives on any peer, no referenced key is missing.
func hostedExactly(x *Index, servers map[string]*Server) bool {
	placed := ringPlacement(x)
	for base, srv := range servers {
		var want []string
		for key, replicas := range placed {
			if slices.Contains(replicas, base) {
				want = append(want, key)
			}
		}
		sort.Strings(want)
		got := srv.HostedKeys()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

func assertHostedExactly(t *testing.T, x *Index, servers map[string]*Server) {
	t.Helper()
	if hostedExactly(x, servers) {
		return
	}
	placed := ringPlacement(x)
	for base, srv := range servers {
		t.Logf("peer %s hosts %v", base, srv.HostedKeys())
	}
	t.Fatalf("hosted shards diverge from ring placement %v", placed)
}

// TestPlacementSupersededGC is the regression test for the re-ship leak:
// churn the ring (tombstone, compact — which recalls remote victims —
// then re-distribute the merged result) and every peer must end up
// hosting exactly the keys of the current ring, with zero superseded
// leftovers, while answers stay byte-identical to the all-local twin.
func TestPlacementSupersededGC(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, s2 := newPeer(t)
	peers := []string{p1.URL, p2.URL}
	servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
	opt := &DistributeOptions{Replicas: 2, KeepLocal: true}
	local, dist, probes := distributedPair(t, peers, opt)
	assertHostedExactly(t, dist, servers)

	// Cross the tombstone ratio everywhere so compaction recalls every
	// remote shard, merges them locally, and sweeps the recalled copies.
	for id := 0; id < 390; id += 2 {
		local.Delete(id)
		dist.Delete(id)
	}
	local.Compact()
	dist.Compact()
	assertHostedExactly(t, dist, servers)
	assertIdentical(t, local, dist, probes)

	// Re-distribute the merged ring: the new keys replace the old ones on
	// the peers — a second pass must not leak its predecessors' keys.
	if err := dist.Distribute(peers, opt); err != nil {
		t.Fatalf("re-Distribute: %v", err)
	}
	if dist.Stats().RemoteShards == 0 {
		t.Fatal("re-Distribute placed nothing")
	}
	assertHostedExactly(t, dist, servers)
	assertIdentical(t, local, dist, probes)

	// The sweep is idempotent: a follow-up GC with an unchanged ring has
	// nothing left to delete.
	if n := dist.placementGC(); n != 0 {
		t.Fatalf("second GC sweep deleted %d pairs, want 0", n)
	}
	assertHostedExactly(t, dist, servers)
}

// TestDistributeErrorCleanup: a pass that fails partway leaves the ring
// unchanged and unwinds its successful uploads from reachable peers; the
// unreachable peer's pairs stay recorded (pessimistically) and are
// reconciled once it heals.
func TestDistributeErrorCleanup(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, f2 := newFlakyPeer(t)
	peers := []string{p1.URL, p2.URL}
	sets, _ := workload(300, 0.8, 711)
	x := Build(sets, 0.5, exactOptions(3, 30, 73))
	ref := Build(sets, 0.5, exactOptions(3, 30, 73))

	f2.broken.Store(true)
	if err := x.Distribute(peers, &DistributeOptions{Replicas: 2, KeepLocal: true}); err == nil {
		t.Fatal("Distribute with a broken peer succeeded")
	}
	if st := x.Stats(); st.RemoteShards != 0 {
		t.Fatalf("failed Distribute left %d remote shards in the ring", st.RemoteShards)
	}
	// The healthy peer's orphaned uploads were swept on the error path.
	if n := s1.HostedShards(); n != 0 {
		t.Fatalf("healthy peer still hosts %d orphaned shards after failed pass", n)
	}
	// The broken peer could not confirm its DELETEs, so those pairs stay
	// recorded for a later sweep rather than being forgotten.
	if _, keys := x.placement.stats(); keys == 0 {
		t.Fatal("registry dropped the unreachable peer's pairs")
	}

	// Heal and retry: the pass succeeds and every peer ends up hosting
	// exactly the ring's keys — the stale record reconciles away.
	f2.broken.Store(false)
	if err := x.Distribute(peers, &DistributeOptions{Replicas: 2, KeepLocal: true}); err != nil {
		t.Fatalf("Distribute after heal: %v", err)
	}
	srv2, ok := f2.h.(*Server)
	if !ok {
		t.Fatal("flaky peer does not wrap a *Server")
	}
	assertHostedExactly(t, x, map[string]*Server{p1.URL: s1, p2.URL: srv2})

	probes := append([][]uint32{}, sets[:60]...)
	assertIdentical(t, ref, x, probes)
}

// quiesce waits until the seal-triggered maintenance goroutine has no pass
// running and none pending, read off its single-flight flags: once a test
// stops sealing, what it checks after quiesce is final.
func quiesce(t *testing.T, x *Index) {
	t.Helper()
	waitFor(t, "the maintenance pass", func() bool {
		return !x.maintaining.Load() && !x.maintainPending.Load()
	})
}

// TestDistributedRingStaysDistributed: once Distribute ran, every ring
// change re-runs it. A seal is shipped with no explicit call, a
// compaction's merged shard is remote when Compact returns, auto-compaction
// re-places what it merges, and each peer hosts exactly the ring's keys
// throughout, with answers identical to the all-local twin. A placement
// record restored from a manifest does not arm shipping: a loaded ring that
// seals without a Distribute of its own ships nothing.
func TestDistributedRingStaysDistributed(t *testing.T) {
	for _, keepLocal := range []bool{false, true} {
		t.Run(fmt.Sprintf("keepLocal=%v", keepLocal), func(t *testing.T) {
			p1, s1 := newPeer(t)
			p2, s2 := newPeer(t)
			servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
			local, dist, probes := distributedPair(t, []string{p1.URL, p2.URL},
				&DistributeOptions{Replicas: 1, KeepLocal: keepLocal})
			placed := func(stage string) {
				t.Helper()
				if st := dist.Stats(); st.RemoteShards != st.Shards || st.Buffered != 0 {
					t.Fatalf("%s: %d of %d ring shards remote, %d buffered", stage, st.RemoteShards, st.Shards, st.Buffered)
				}
				assertHostedExactly(t, dist, servers)
				assertIdentical(t, local, dist, probes)
			}
			add := func(n int, seed uint64) {
				sets, _ := workload(n, 0.8, seed)
				sets = sets[:n]
				local.Add(sets)
				dist.Add(sets)
				probes = append(probes, sets[:5]...)
			}
			placed("Distribute")

			add(40, 731) // crosses MergeThreshold: Add seals
			quiesce(t, dist)
			placed("seal")

			add(10, 733)
			local.Flush()
			dist.Flush()
			quiesce(t, dist)
			placed("flush")

			for id := 0; id < local.Stats().Appends+300; id += 2 {
				local.Delete(id)
				dist.Delete(id)
			}
			local.Compact()
			if res := dist.Compact(); res.Merged == 0 {
				t.Fatalf("ratio-triggered compaction merged nothing: %+v", res)
			}
			placed("compaction")

			for _, x := range []*Index{local, dist} {
				if err := x.Configure(RuntimeOptions{AutoCompact: true}); err != nil {
					t.Fatal(err)
				}
			}
			before := dist.Stats().Compactions
			for seed := uint64(741); seed < 745; seed++ {
				add(30, seed)
			}
			quiesce(t, dist)
			if dist.Stats().Compactions == before {
				t.Fatal("no auto-compaction ran after four seals")
			}
			placed("auto-compaction")

			// A restart keeps the record, for the GC sweep of its next
			// Distribute, but not the shipping: its seals stay local.
			dir := t.TempDir()
			if err := dist.Save(dir); err != nil {
				t.Fatal(err)
			}
			y, err := Load(dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			epoch, keys := y.placement.stats()
			if epoch == 0 || keys == 0 {
				t.Fatalf("loaded placement record: epoch %d, %d keys", epoch, keys)
			}
			hosted := [][]string{s1.HostedKeys(), s2.HostedKeys()}
			sets, _ := workload(40, 0.8, 751)
			sets = sets[:40]
			local.Add(sets)
			y.Add(sets)
			probes = append(probes, sets[:5]...)
			quiesce(t, y)
			if st := y.Stats(); st.RemoteShards != 0 || st.PlacementEpoch != epoch {
				t.Fatalf("loaded ring sealed without Distribute: %d remote shards, epoch %d -> %d",
					st.RemoteShards, epoch, st.PlacementEpoch)
			}
			if !slices.Equal(s1.HostedKeys(), hosted[0]) || !slices.Equal(s2.HostedKeys(), hosted[1]) {
				t.Fatal("a loaded ring that never distributed shipped or evicted hosted shards")
			}
			assertIdentical(t, local, y, probes)
		})
	}
}

// TestPlacementControllerAutoShip: shards sealed after Distribute are
// shipped to every replica with no explicit call — the job the placement
// controller used to do, now the seal's maintenance pass.
func TestPlacementControllerAutoShip(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, s2 := newPeer(t)
	peers := []string{p1.URL, p2.URL}
	servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
	sets, _ := workload(300, 0.8, 721)
	local := Build(sets, 0.5, exactOptions(3, 30, 75))
	x := Build(sets, 0.5, exactOptions(3, 30, 75))
	if err := x.Distribute(peers, &DistributeOptions{Replicas: 2, KeepLocal: true}); err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	assertHostedExactly(t, x, servers)

	extra, _ := workload(60, 0.8, 723)
	local.Add(extra)
	x.Add(extra)
	quiesce(t, x)
	if st := x.Stats(); st.Buffered != 0 || st.RemoteShards != st.Shards {
		t.Fatalf("sealed shards not shipped: %d of %d ring shards remote, %d buffered",
			st.RemoteShards, st.Shards, st.Buffered)
	}
	assertHostedExactly(t, x, servers)

	probes := append(append([][]uint32{}, sets[:60]...), extra[:20]...)
	assertIdentical(t, local, x, probes)
}

// TestPlacementControllerCompactReship: a compaction of a distributed ring
// recalls remote victims, merges them, sweeps the recalled keys and ships
// the merged shard before Compact returns — peers host exactly the new
// ring and answers stay byte-identical.
func TestPlacementControllerCompactReship(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, s2 := newPeer(t)
	peers := []string{p1.URL, p2.URL}
	servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
	local, dist, probes := distributedPair(t, peers, &DistributeOptions{Replicas: 2, KeepLocal: true})
	quiesce(t, dist)

	for id := 0; id < 390; id += 2 {
		local.Delete(id)
		dist.Delete(id)
	}
	local.Compact()
	if res := dist.Compact(); res.Merged == 0 {
		t.Fatalf("ratio-triggered compaction merged nothing: %+v", res)
	}
	if st := dist.Stats(); st.RemoteShards != st.Shards || st.RemoteShards == 0 {
		t.Fatalf("after Compact: %d of %d ring shards remote", st.RemoteShards, st.Shards)
	}
	assertHostedExactly(t, dist, servers)
	assertIdentical(t, local, dist, probes)
}

// TestPlacementSaveLoadRoundTrip: the shipped-shard record survives the
// manifest round trip, so a restarted coordinator still owns its
// previous life's keys — a re-distribution after Load reconciles the
// peers to exactly the new ring.
func TestPlacementSaveLoadRoundTrip(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, s2 := newPeer(t)
	peers := []string{p1.URL, p2.URL}
	servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
	opt := &DistributeOptions{Replicas: 2, KeepLocal: true}
	local, dist, probes := distributedPair(t, peers, opt)
	wantEpoch, wantKeys := dist.placement.stats()
	if wantEpoch == 0 || wantKeys == 0 {
		t.Fatalf("no placement state after Distribute (epoch=%d keys=%d)", wantEpoch, wantKeys)
	}

	dir := t.TempDir()
	if err := dist.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Placement == nil || m.Placement.Epoch != wantEpoch || len(m.Placement.Shipped) != wantKeys {
		t.Fatalf("manifest placement = %+v, want epoch %d with %d keys", m.Placement, wantEpoch, wantKeys)
	}

	y, err := Load(dir, 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if epoch, keys := y.placement.stats(); epoch != wantEpoch || keys != wantKeys {
		t.Fatalf("loaded placement = (epoch %d, keys %d), want (%d, %d)", epoch, keys, wantEpoch, wantKeys)
	}

	// The loaded index is all-local (snapshots are topology-free), but it
	// still owns the shipped keys: distributing again reconciles the
	// peers against the restored record.
	if err := y.Distribute(peers, opt); err != nil {
		t.Fatalf("Distribute after Load: %v", err)
	}
	assertHostedExactly(t, y, servers)
	assertIdentical(t, local, y, probes)
}

// TestPlacementStats: the coordinator surfaces its placement record in
// Stats — epoch counts passes, keys counts live tracked shards.
func TestPlacementStats(t *testing.T) {
	p1, _ := newPeer(t)
	p2, _ := newPeer(t)
	_, dist, _ := distributedPair(t, []string{p1.URL, p2.URL},
		&DistributeOptions{Replicas: 1, KeepLocal: true})
	st := dist.Stats()
	if st.PlacementEpoch != 1 {
		t.Fatalf("PlacementEpoch = %d after one pass, want 1", st.PlacementEpoch)
	}
	if st.PlacementKeys != st.RemoteShards {
		t.Fatalf("PlacementKeys = %d, ring has %d remote shards", st.PlacementKeys, st.RemoteShards)
	}
	if err := dist.Distribute([]string{p1.URL, p2.URL}, nil); err != nil {
		t.Fatalf("re-Distribute: %v", err)
	}
	if got := dist.Stats().PlacementEpoch; got != 2 {
		t.Fatalf("PlacementEpoch = %d after two passes, want 2", got)
	}
}
