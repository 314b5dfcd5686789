package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/snapshot"
)

// newPeer starts an httptest peer: an ordinary serve instance with an
// empty index of its own, hosting shards shipped to /shard/snapshot —
// exactly what `serve -peer` runs.
func newPeer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(Build(nil, 0.5, &Options{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// flakyPeer wraps a peer handler with failure injection: while broken is
// set every request gets a 503, and failAfter (when non-negative) breaks
// the peer permanently once that many requests have been served — the
// "peer dies mid-batch" case.
type flakyPeer struct {
	h         http.Handler
	broken    atomic.Bool
	served    atomic.Int64
	failAfter atomic.Int64
}

func newFlakyPeer(t *testing.T) (*httptest.Server, *flakyPeer) {
	t.Helper()
	fp := &flakyPeer{h: NewServer(Build(nil, 0.5, &Options{}))}
	fp.failAfter.Store(-1)
	ts := httptest.NewServer(fp)
	t.Cleanup(ts.Close)
	return ts, fp
}

func (f *flakyPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if after := f.failAfter.Load(); after >= 0 && f.served.Load() >= after {
		f.broken.Store(true)
	}
	if f.broken.Load() {
		http.Error(w, "injected failure", http.StatusServiceUnavailable)
		return
	}
	f.served.Add(1)
	f.h.ServeHTTP(w, r)
}

// distributedPair builds two identical exact-mode indexes over the same
// data and distributes one of them across the given peers. Every answer
// of the pair must be byte-identical for the remainder of the test.
func distributedPair(t *testing.T, peers []string, o *DistributeOptions) (local, dist *Index, probes [][]uint32) {
	t.Helper()
	sets, _ := workload(300, 0.8, 701)
	extra, _ := workload(90, 0.8, 703)
	build := func() *Index {
		x := Build(sets, 0.5, exactOptions(3, 30, 71))
		x.Add(extra) // seals side shards: the distributed ring is > 3 shards
		for id := len(sets); id < len(sets)+len(extra); id += 4 {
			x.Delete(id)
		}
		return x
	}
	local, dist = build(), build()
	if err := dist.Distribute(peers, o); err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	probes = append(append([][]uint32{}, sets[:80]...), extra[:40]...)
	probes = append(probes, nil) // empty query goes through the merge too
	return local, dist, probes
}

// assertIdentical checks Query, QueryAll and QueryBatch agree
// byte-for-byte between the all-local and the distributed index.
func assertIdentical(t *testing.T, local, dist *Index, probes [][]uint32) {
	t.Helper()
	for i, q := range probes {
		wantID, wantSim, wantOK := mustQuery(t, local, q)
		id, sim, ok, err := dist.QueryErr(q)
		if err != nil {
			t.Fatalf("probe %d: QueryErr: %v", i, err)
		}
		if id != wantID || sim != wantSim || ok != wantOK {
			t.Fatalf("probe %d: Query = (%d, %v, %v), local says (%d, %v, %v)",
				i, id, sim, ok, wantID, wantSim, wantOK)
		}
		got, err := dist.QueryAllErr(q)
		if err != nil {
			t.Fatalf("probe %d: QueryAllErr: %v", i, err)
		}
		if !equalMatches(t, got, mustQueryAll(t, local, q)) {
			t.Fatalf("probe %d: QueryAll diverges from all-local index", i)
		}
	}
	gotBatch, err := dist.QueryBatchErr(probes)
	if err != nil {
		t.Fatalf("QueryBatchErr: %v", err)
	}
	wantBatch := mustQueryBatch(t, local, probes)
	for i := range probes {
		if !equalMatches(t, gotBatch[i], wantBatch[i]) {
			t.Fatalf("QueryBatch[%d] diverges from all-local index", i)
		}
	}
}

// TestDistributeEquivalence pins the tentpole contract: a mixed
// local/remote topology answers byte-identically (exact mode) to the
// all-local index — shards moved or replicated, deletes before and after
// placement, appends sealed and shipped after placement, compaction, and
// the stats reflecting it all.
func TestDistributeEquivalence(t *testing.T) {
	for _, keepLocal := range []bool{true, false} {
		t.Run(fmt.Sprintf("keepLocal=%v", keepLocal), func(t *testing.T) {
			p1, _ := newPeer(t)
			p2, s2 := newPeer(t)
			local, dist, probes := distributedPair(t, []string{p1.URL, p2.URL},
				&DistributeOptions{Replicas: 2, KeepLocal: keepLocal})
			st := dist.Stats()
			if st.RemoteShards == 0 {
				t.Fatalf("no remote shards after Distribute: %+v", st)
			}
			if s2.HostedShards() != st.RemoteShards {
				t.Fatalf("peer hosts %d shards, coordinator placed %d", s2.HostedShards(), st.RemoteShards)
			}
			assertIdentical(t, local, dist, probes)

			// Deletes after placement are coordinator state: filtered at
			// merge time without touching the peers.
			local.Delete(7)
			dist.Delete(7)
			assertIdentical(t, local, dist, probes)

			// Appends after placement are shipped too: the seal re-runs the
			// recorded Distribute on the maintenance goroutine. Answers agree
			// while it runs and once the ring is all remote again.
			more, _ := workload(35, 0.8, 707)
			local.Add(more)
			dist.Add(more)
			assertIdentical(t, local, dist, probes)
			quiesce(t, dist)
			if st := dist.Stats(); st.RemoteShards != st.Shards || s2.HostedShards() != st.Shards {
				t.Fatalf("sealed shard not shipped: %d of %d remote, peer hosts %d",
					st.RemoteShards, st.Shards, s2.HostedShards())
			}
			assertIdentical(t, local, dist, probes)

			// A pass with nothing eligible is a no-op on both indexes.
			local.Compact()
			dist.Compact()
			assertIdentical(t, local, dist, probes)

			// Remote-backed shards are compaction-eligible like local ones:
			// tombstone half of everything so every shard crosses the ratio,
			// and the pass recalls the remote victims (local copy or verified
			// fetch-back), merges them locally, ships the merged shard and
			// garbage-collects the recalled copies off the peers before
			// Compact returns. Answers stay byte-identical.
			for id := 0; id < 300+90+len(more); id += 2 {
				local.Delete(id)
				dist.Delete(id)
			}
			local.Compact()
			dist.Compact()
			after := dist.Stats()
			if after.Shards >= st.Shards || after.RemoteShards != after.Shards {
				t.Fatalf("ratio-triggered compaction: %d -> %d shards, %d remote after",
					st.Shards, after.Shards, after.RemoteShards)
			}
			if hosted := s2.HostedShards(); hosted != after.RemoteShards {
				t.Fatalf("peer hosts %d shards after compaction GC, ring references %d",
					hosted, after.RemoteShards)
			}
			assertIdentical(t, local, dist, probes)
		})
	}
}

// TestFailoverReplicaDown: with 2-way replication, killing one peer
// changes nothing — every query fails over to the live replica and the
// answers remain byte-identical. Killing both without a local copy is a
// hard error, never a silent partial merge; with KeepLocal the local
// copy serves as the final replica and answers never degrade.
func TestFailoverReplicaDown(t *testing.T) {
	p1, f1 := newFlakyPeer(t)
	p2, f2 := newFlakyPeer(t)
	local, dist, probes := distributedPair(t, []string{p1.URL, p2.URL},
		&DistributeOptions{Replicas: 2, KeepLocal: false})
	assertIdentical(t, local, dist, probes)

	// First replica down: identical answers from the second.
	f1.broken.Store(true)
	assertIdentical(t, local, dist, probes)

	// Both down, no local copy: a clear error from every query path.
	f2.broken.Store(true)
	if _, err := dist.QueryBatchErr(probes); err == nil || !strings.Contains(err.Error(), "no live replica") {
		t.Fatalf("QueryBatchErr with all replicas down = %v, want 'no live replica' error", err)
	}
	if _, _, _, err := dist.QueryErr(probes[0]); err == nil || !strings.Contains(err.Error(), "no live replica") {
		t.Fatalf("QueryErr with all replicas down = %v, want 'no live replica' error", err)
	}
	if _, err := dist.QueryAllErr(probes[0]); err == nil {
		t.Fatal("QueryAllErr with all replicas down succeeded")
	}

	// Peers recover: service resumes with identical answers.
	f1.broken.Store(false)
	f2.broken.Store(false)
	assertIdentical(t, local, dist, probes)

	// A KeepLocal topology rides out the same double failure entirely
	// locally.
	p3, f3 := newFlakyPeer(t)
	local2, dist2, probes2 := distributedPair(t, []string{p3.URL},
		&DistributeOptions{Replicas: 1, KeepLocal: true})
	f3.broken.Store(true)
	assertIdentical(t, local2, dist2, probes2)
}

// TestMidBatchFailover kills a peer partway through a QueryBatch — some
// shard RPCs have already been served, the rest hit the dead peer and
// must fail over to the replica with byte-identical merged results.
func TestMidBatchFailover(t *testing.T) {
	p1, f1 := newFlakyPeer(t)
	p2, _ := newPeer(t)
	local, dist, probes := distributedPair(t, []string{p1.URL, p2.URL},
		&DistributeOptions{Replicas: 2, KeepLocal: false})
	// Let the shipping requests through, then allow exactly one more
	// request before p1 starts failing: the first shard's batch RPC is
	// served, every later one fails over to p2 mid-batch.
	f1.failAfter.Store(f1.served.Load() + 1)
	assertIdentical(t, local, dist, probes)
}

// TestShardSnapshotShipping covers the transfer protocol itself: the
// uploaded container round-trips byte-for-byte through GET, the receipt
// carries the checksum of exactly those bytes, and uploads that disagree
// with their manifest-level identity (seed, set count) or carry
// corrupted bytes are rejected with a 4xx, never accepted quietly.
func TestShardSnapshotShipping(t *testing.T) {
	ts, srv := newPeer(t)
	client := ts.Client()

	sets, _ := workload(120, 0.8, 711)
	x := Build(sets, 0.5, exactOptions(2, 30, 73))
	x.mu.RLock()
	sub := x.shards[0].(*localShard)
	x.mu.RUnlock()
	raw, err := encodeShardBytes(sub, x.signers)
	if err != nil {
		t.Fatal(err)
	}
	seed := sub.seed
	key := shardKey(seed, crc32.Checksum(raw, castagnoli))

	if err := shipShard(client, ts.URL, key, seed, len(sub.ids), len(sets), raw); err != nil {
		t.Fatalf("shipShard: %v", err)
	}
	if srv.HostedShards() != 1 {
		t.Fatalf("peer hosts %d shards, want 1", srv.HostedShards())
	}

	// GET returns the hosted bytes unchanged.
	back, err := getShardSnapshot(client, ts.URL, key)
	if err != nil {
		t.Fatalf("getShardSnapshot: %v", err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatalf("snapshot round trip changed bytes: sent %d, got %d", len(raw), len(back))
	}
	// And the round-tripped bytes decode into a queryable shard that
	// answers exactly like the source.
	rt, err := decodeShardBytes(back, snapshot.ShardEntry{Seed: seed, Sets: len(sub.ids)}, len(sets))
	if err != nil {
		t.Fatalf("decoding round-tripped shard: %v", err)
	}
	for qi := 0; qi < 40; qi++ {
		a, _, _ := rt.query(plan{kind: kindAll}, sets[qi])
		b, _, _ := sub.query(plan{kind: kindAll}, sets[qi])
		if !equalMatches(t, a.Matches, b.Matches) {
			t.Fatalf("round-tripped shard diverges on query %d", qi)
		}
	}

	// A seed mismatch is the shuffled-files failure mode: rejected.
	if err := shipShard(client, ts.URL, key, seed+1, len(sub.ids), len(sets), raw); err == nil {
		t.Fatal("upload with wrong seed accepted")
	}
	// A set-count mismatch likewise.
	if err := shipShard(client, ts.URL, key, seed, len(sub.ids)+1, len(sets), raw); err == nil {
		t.Fatal("upload with wrong set count accepted")
	}
	// Corrupted bytes fail the container checksums.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if err := shipShard(client, ts.URL, key, seed, len(sub.ids), len(sets), bad); err == nil {
		t.Fatal("corrupted upload accepted")
	}
	// Unknown shards are a clean 404 on both query and download.
	if _, err := getShardSnapshot(client, ts.URL, "cps-nope"); err == nil {
		t.Fatal("download of unknown shard succeeded")
	}
	var resp queryResponse
	err = postJSON(client, ts.URL+"/v1/shard/query", shardQueryRequest{Shard: "cps-nope", Set: sets[0], All: true}, &resp)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("query of unknown shard = %v, want 404", err)
	}

	// Keys are content-unique: the same options (and thus the same
	// per-shard seed) over a different collection yield a different key,
	// so coordinators sharing a peer can never overwrite each other.
	otherSets, _ := workload(120, 0.8, 719)
	y := Build(otherSets, 0.5, exactOptions(2, 30, 73))
	y.mu.RLock()
	otherSub := y.shards[0].(*localShard)
	y.mu.RUnlock()
	otherRaw, err := encodeShardBytes(otherSub, y.signers)
	if err != nil {
		t.Fatal(err)
	}
	if otherSub.seed != seed {
		t.Fatal("test premise broken: same options should derive the same shard seed")
	}
	if otherKey := shardKey(seed, crc32.Checksum(otherRaw, castagnoli)); otherKey == key {
		t.Fatal("different collections produced the same shard key")
	}

	// DELETE evicts the hosted shard; repeating it is a no-op, and the
	// evicted key is gone from queries and downloads.
	delURL := ts.URL + "/v1/shard/snapshot?shard=" + key
	req, _ := http.NewRequest(http.MethodDelete, delURL, nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %s", dresp.Status)
	}
	if srv.HostedShards() != 0 {
		t.Fatalf("peer still hosts %d shards after eviction", srv.HostedShards())
	}
	if _, err := getShardSnapshot(client, ts.URL, key); err == nil {
		t.Fatal("download of evicted shard succeeded")
	}
	req2, _ := http.NewRequest(http.MethodDelete, delURL, nil)
	dresp2, err := client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat DELETE = %s, want idempotent 200", dresp2.Status)
	}
}

// TestSaveWithRemoteShards: a Save of a ring whose shards were moved to
// peers fetches the bytes back (re-verified) and writes a normal,
// topology-free snapshot — Load restores a fully local index answering
// byte-identically.
func TestSaveWithRemoteShards(t *testing.T) {
	p1, _ := newPeer(t)
	p2, _ := newPeer(t)
	local, dist, probes := distributedPair(t, []string{p1.URL, p2.URL},
		&DistributeOptions{Replicas: 1, KeepLocal: false})
	dir := t.TempDir()
	if err := dist.Save(dir); err != nil {
		t.Fatalf("Save with remote shards: %v", err)
	}
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := y.Stats().RemoteShards; got != 0 {
		t.Fatalf("loaded index has %d remote shards, want 0 (snapshots are topology-free)", got)
	}
	assertIdentical(t, local, y, probes)

	// With every peer down the moved shards' bytes are unreachable: Save
	// must fail loudly instead of writing a partial snapshot.
	p1.Close()
	p2.Close()
	if err := dist.Save(t.TempDir()); err == nil {
		t.Fatal("Save with all peers down succeeded")
	} else if !strings.Contains(err.Error(), "no live replica") {
		t.Fatalf("Save error = %v, want 'no live replica'", err)
	}
}

// TestDistributeShipsColdShards: tier and placement are orthogonal. A ring
// restored cold ships like a hot one — every shard becomes remote, moved or
// replicated — and what it ships is the mapping itself, so each peer holds
// the shard file's bytes and a Save of the distributed ring writes them
// again. A GC loop runs across the upload: raw aliases a mapping that only
// the shard pins.
func TestDistributeShipsColdShards(t *testing.T) {
	_, dir, queries := saveWorkload(t)
	local, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardFiles := func(dir string) [][]byte {
		t.Helper()
		m, err := snapshot.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(m.Shards))
		for i, e := range m.Shards {
			if out[i], err = os.ReadFile(filepath.Join(dir, e.File)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want := shardFiles(dir)

	for _, keepLocal := range []bool{false, true} {
		t.Run(fmt.Sprintf("keepLocal=%v", keepLocal), func(t *testing.T) {
			p1, _ := newPeer(t)
			p2, _ := newPeer(t)
			dist, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: TierCold})
			if err != nil {
				t.Fatal(err)
			}
			if st := dist.Stats(); st.ColdShards != len(want) {
				t.Fatalf("restored %d cold shards, want %d", st.ColdShards, len(want))
			}

			stop, collected := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(collected)
				for {
					select {
					case <-stop:
						return
					default:
						runtime.GC()
					}
				}
			}()
			err = dist.Distribute([]string{p1.URL, p2.URL}, &DistributeOptions{Replicas: 2, KeepLocal: keepLocal})
			close(stop)
			<-collected
			if err != nil {
				t.Fatalf("Distribute of a cold ring: %v", err)
			}
			if st := dist.Stats(); st.RemoteShards != len(want) || st.ColdShards != 0 || st.HotShards != 0 {
				t.Fatalf("after Distribute: %d remote / %d cold / %d hot, want %d / 0 / 0",
					st.RemoteShards, st.ColdShards, st.HotShards, len(want))
			}
			// A moved shard's mapping is garbage now; nothing may still read it.
			runtime.GC()
			runtime.GC()
			assertIdentical(t, local, dist, queries)
			for qi, q := range queries[:20] {
				wantC, err1 := local.QueryContain(q, 0.7)
				gotC, err2 := dist.QueryContain(q, 0.7)
				if err1 != nil || err2 != nil || !equalMatches(t, gotC, wantC) {
					t.Fatalf("containment probe %d diverges on the distributed cold ring (errs %v / %v)", qi, err1, err2)
				}
			}

			dist.mu.RLock()
			ring := dist.shards
			dist.mu.RUnlock()
			for i, sh := range ring {
				r := sh.(*remoteShard)
				if (r.local != nil) != keepLocal {
					t.Fatalf("shard %d: local copy kept = %v, want %v", i, r.local != nil, keepLocal)
				}
				if keepLocal && !r.local.isCold() {
					t.Fatalf("shard %d: shipping promoted the retained copy", i)
				}
				for _, peer := range r.replicas {
					got, err := getShardSnapshot(http.DefaultClient, peer, r.key)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[i]) {
						t.Fatalf("shard %d: peer %s holds bytes that differ from the shard file", i, peer)
					}
				}
			}

			saved := t.TempDir()
			if err := dist.Save(saved); err != nil {
				t.Fatal(err)
			}
			for i, got := range shardFiles(saved) {
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("shard file %d saved from the distributed ring differs", i)
				}
			}
		})
	}
}

// TestDistributeValidation: bad topologies are rejected up front.
func TestDistributeValidation(t *testing.T) {
	sets, _ := workload(50, 0.8, 721)
	x := Build(sets, 0.5, exactOptions(2, 30, 79))
	if err := x.Distribute(nil, nil); err == nil {
		t.Fatal("Distribute with no peers succeeded")
	}
	if err := x.Distribute([]string{""}, nil); err == nil {
		t.Fatal("Distribute with an empty peer URL succeeded")
	}
	// A dead peer fails the placement; the ring stays fully local and
	// serving continues untouched.
	if err := x.Distribute([]string{"http://127.0.0.1:1"}, nil); err == nil {
		t.Fatal("Distribute to a dead peer succeeded")
	}
	if st := x.Stats(); st.RemoteShards != 0 {
		t.Fatalf("failed Distribute left %d remote shards", st.RemoteShards)
	}
	if _, _, _, err := x.QueryErr(sets[0]); err != nil {
		t.Fatalf("local ring broken after failed Distribute: %v", err)
	}
}

// Compile-time checks: both backends satisfy the ring interface.
var (
	_ shardBackend = (*remoteShard)(nil)
	_ shardBackend = (*localShard)(nil)
)
