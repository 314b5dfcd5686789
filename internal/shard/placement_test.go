package shard

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// waitFor polls cond until it holds or the deadline passes — the
// controller tests' only clock dependence, so they stay fast when the
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

// TestPlacementControllerAutoShip: with a controller running, shards
// sealed after placement are shipped automatically — no explicit
// Distribute call — and a second controller cannot be started.
func TestPlacementControllerAutoShip(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, s2 := newPeer(t)
	peers := []string{p1.URL, p2.URL}
	servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
	sets, _ := workload(300, 0.8, 721)
	local := Build(sets, 0.5, exactOptions(3, 30, 75))
	x := Build(sets, 0.5, exactOptions(3, 30, 75))

	err := x.StartPlacement(peers, &DistributeOptions{Replicas: 2, KeepLocal: true},
		&PlacementOptions{Interval: 20 * time.Millisecond, ProbeInterval: -1})
	if err != nil {
		t.Fatalf("StartPlacement: %v", err)
	}
	defer x.StopPlacement()
	if err := x.StartPlacement(peers, nil, nil); err == nil {
		t.Fatal("second StartPlacement succeeded")
	}

	// The initial kick ships the ring built before the controller existed.
	waitFor(t, "initial placement pass", func() bool {
		st := x.Stats()
		return st.RemoteShards == st.Shards && st.RemoteShards > 0 && hostedExactly(x, servers)
	})

	// Seal new shards: the controller observes the seal kick and ships
	// them without an explicit Distribute.
	extra, _ := workload(60, 0.8, 723)
	local.Add(extra)
	x.Add(extra)
	waitFor(t, "auto-ship of sealed shards", func() bool {
		st := x.Stats()
		return st.Buffered == 0 && st.RemoteShards == st.Shards && hostedExactly(x, servers)
	})

	probes := append(append([][]uint32{}, sets[:60]...), extra[:20]...)
	assertIdentical(t, local, x, probes)
	x.StopPlacement()
	x.StopPlacement() // idempotent no-op
}

// TestPlacementControllerCompactReship: a compaction pass under a
// running controller recalls remote victims, merges them, sweeps the
// recalled keys, and the controller re-ships the merged shard — ending
// with peers hosting exactly the new ring and byte-identical answers.
func TestPlacementControllerCompactReship(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, s2 := newPeer(t)
	peers := []string{p1.URL, p2.URL}
	servers := map[string]*Server{p1.URL: s1, p2.URL: s2}
	opt := &DistributeOptions{Replicas: 2, KeepLocal: true}
	local, dist, probes := distributedPair(t, peers, opt)

	if err := dist.StartPlacement(peers, opt,
		&PlacementOptions{Interval: 20 * time.Millisecond, ProbeInterval: -1}); err != nil {
		t.Fatalf("StartPlacement: %v", err)
	}
	defer dist.StopPlacement()

	for id := 0; id < 390; id += 2 {
		local.Delete(id)
		dist.Delete(id)
	}
	local.Compact()
	dist.Compact()
	waitFor(t, "post-compaction re-ship and GC", func() bool {
		st := dist.Stats()
		return st.RemoteShards == st.Shards && st.RemoteShards > 0 && hostedExactly(dist, servers)
	})
	assertIdentical(t, local, dist, probes)
}

// TestPlacementProbeRebalance: active probes flip the shared health bit
// after UnhealthyAfter consecutive failures, rebalancing (when enabled)
// re-ships the dead peer's replicas to healthy ones without touching
// answers, and a healed peer's first successful probe flips the bit
// back and lets the GC retire its stale copies.
func TestPlacementProbeRebalance(t *testing.T) {
	p1, s1 := newPeer(t)
	p2, f2 := newFlakyPeer(t)
	peers := []string{p1.URL, p2.URL}
	opt := &DistributeOptions{Replicas: 1, KeepLocal: true}
	local, dist, probes := distributedPair(t, peers, opt)
	if err := dist.StartPlacement(peers, opt, &PlacementOptions{
		Interval:        25 * time.Millisecond,
		ProbeInterval:   5 * time.Millisecond,
		UnhealthyAfter:  2,
		ProbeBackoffMax: 10 * time.Millisecond,
		Rebalance:       true,
	}); err != nil {
		t.Fatalf("StartPlacement: %v", err)
	}
	defer dist.StopPlacement()

	waitFor(t, "probe marks live peers healthy", func() bool {
		return dist.metrics.peer(p2.URL).healthy.Load()
	})

	// Kill peer 2: probes flip its health bit and the rebalancer moves
	// its replicas onto peer 1.
	f2.broken.Store(true)
	waitFor(t, "probe flips dead peer unhealthy", func() bool {
		return !dist.metrics.peer(p2.URL).healthy.Load()
	})
	waitFor(t, "replicas rebalanced off the dead peer", func() bool {
		placed := ringPlacement(dist)
		if len(placed) == 0 {
			return false
		}
		for _, replicas := range placed {
			if slices.Contains(replicas, p2.URL) {
				return false
			}
		}
		return true
	})
	assertIdentical(t, local, dist, probes)

	// Heal: the next successful probe flips the bit back, and the stale
	// copies the dead peer still holds are swept by a later GC pass.
	f2.broken.Store(false)
	waitFor(t, "probe flips healed peer healthy", func() bool {
		return dist.metrics.peer(p2.URL).healthy.Load()
	})
	srv2, ok := f2.h.(*Server)
	if !ok {
		t.Fatal("flaky peer does not wrap a *Server")
	}
	waitFor(t, "stale copies swept from healed peer", func() bool {
		return hostedExactly(dist, map[string]*Server{p1.URL: s1, p2.URL: srv2})
	})
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
