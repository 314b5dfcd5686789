package shard

import (
	"net/http"
	"sort"
	"sync"

	"repro/internal/snapshot"
)

// Placement keeps a distributed ring distributed. Distribute ships the
// ring's local shards and records what it shipped where; the rule on top of
// it is that a ring this process has distributed stays distributed: every
// ring change re-runs the recorded Distribute. A compaction pass that changed
// the ring does so before Compact returns, and a seal does so on the
// background maintenance goroutine (see maintainAsync). Each pass ships the
// shards the change created and ends with a GC sweep that evicts the hosted
// keys the ring no longer references, so peers host exactly the ring. The
// rule needs no knob because it only repeats a call the operator already
// made, under the peers and options they chose. Shipping and recalling move
// where a shard answers from, never what it answers.
//
// placementState is the record: every (key, peer) pair ever shipped, the
// peers and options of the last Distribute pass, and a pass epoch. It is
// persisted in the manifest, so a restarted coordinator still owns (and
// garbage-collects, once it distributes again) the keys of its previous
// life.

// placementState is the coordinator's record of shipped shards: which
// peers hold which keys, and the parameters of the last placement pass.
// Guarded by its own mutex — it is read by Save and Stats while
// Distribute mutates it.
type placementState struct {
	mu    sync.Mutex
	peers []string
	opts  DistributeOptions
	epoch int
	// placed is set by this process's first Distribute and never cleared;
	// from then on every ring change re-runs the recorded pass. A record
	// restored from a manifest leaves it unset, so a restart ships nothing
	// until it distributes itself.
	placed bool
	// shipped maps shard key -> the set of peer bases it was shipped to.
	// Pairs are recorded when an upload begins and removed only when a
	// DELETE against the peer succeeds, so the record errs on the side of
	// "the peer might still hold it".
	shipped map[string]map[string]struct{}
}

// beginPass records the parameters of a placement pass, advances the
// epoch and arms re-placement.
func (p *placementState) beginPass(bases []string, opts DistributeOptions) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peers = append([]string(nil), bases...)
	p.opts = opts
	p.epoch++
	p.placed = true
}

// recorded returns the peers and options of the last pass, and whether
// this process ran it.
func (p *placementState) recorded() ([]string, DistributeOptions, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peers, p.opts, p.placed
}

// record notes that key is (about to be) hosted on peer.
func (p *placementState) record(key, peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shipped == nil {
		p.shipped = make(map[string]map[string]struct{})
	}
	set := p.shipped[key]
	if set == nil {
		set = make(map[string]struct{})
		p.shipped[key] = set
	}
	set[peer] = struct{}{}
}

// forget removes one (key, peer) pair — called only after the peer
// confirmed the eviction.
func (p *placementState) forget(key, peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if set := p.shipped[key]; set != nil {
		delete(set, peer)
		if len(set) == 0 {
			delete(p.shipped, key)
		}
	}
}

// pairs snapshots every recorded (key, peer) pair, sorted for
// deterministic sweep order.
func (p *placementState) pairs() [][2]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [][2]string
	for key, set := range p.shipped {
		for peer := range set {
			out = append(out, [2]string{key, peer})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// stats returns the epoch and the number of distinct tracked keys.
func (p *placementState) stats() (epoch, keys int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch, len(p.shipped)
}

// snapshotState converts the record to its manifest form (nil when no
// placement ever happened — manifests without placement stay as before).
func (p *placementState) snapshotState() *snapshot.PlacementState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epoch == 0 && len(p.shipped) == 0 {
		return nil
	}
	ps := &snapshot.PlacementState{
		Epoch:     p.epoch,
		Peers:     append([]string(nil), p.peers...),
		Replicas:  p.opts.Replicas,
		KeepLocal: p.opts.KeepLocal,
	}
	for key, set := range p.shipped {
		peers := make([]string, 0, len(set))
		for peer := range set {
			peers = append(peers, peer)
		}
		sort.Strings(peers)
		ps.Shipped = append(ps.Shipped, snapshot.ShippedShard{Key: key, Peers: peers})
	}
	sort.Slice(ps.Shipped, func(i, j int) bool { return ps.Shipped[i].Key < ps.Shipped[j].Key })
	return ps
}

// restore loads the manifest form back — the Load path, so a restarted
// coordinator garbage-collects the keys its previous life shipped once
// it distributes again. It does not arm re-placement: only this process's
// own Distribute does.
func (p *placementState) restore(ps *snapshot.PlacementState) {
	if ps == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch = ps.Epoch
	p.peers = append([]string(nil), ps.Peers...)
	p.opts = DistributeOptions{Replicas: ps.Replicas, KeepLocal: ps.KeepLocal}
	p.shipped = make(map[string]map[string]struct{}, len(ps.Shipped))
	for _, s := range ps.Shipped {
		set := make(map[string]struct{}, len(s.Peers))
		for _, peer := range s.Peers {
			set[peer] = struct{}{}
		}
		p.shipped[s.Key] = set
	}
}

// keepPlaced re-runs the recorded Distribute when this process has
// distributed the ring — called after every ring change. A failure leaves
// the unshipped shards local (answers do not change) and is counted; the
// next ring change or Distribute retries them.
func (x *Index) keepPlaced() {
	peers, opts, placed := x.placement.recorded()
	if !placed {
		return
	}
	if err := x.Distribute(peers, &opts); err != nil {
		if m := x.metrics; m != nil {
			m.placementErrors.Inc()
		}
	}
}

// placementClient returns the HTTP client the GC sweep should use: the
// recorded Distribute client, or the shared default.
func (x *Index) placementClient() *http.Client {
	_, opts, _ := x.placement.recorded()
	if opts.Client != nil {
		return opts.Client
	}
	return defaultRemoteClient
}

// placementGC sweeps superseded hosted shards off peers: every recorded
// (key, peer) pair that the current ring does not reference — because a
// re-distribution shipped new content, a compaction recalled and merged
// the shard, or a failed pass orphaned an upload — is DELETEd from its
// peer. A pair is forgotten only when the peer confirms, so an unreachable
// peer's pairs are retried on every later sweep; the sweep is idempotent
// throughout (peer DELETEs are). It returns the number of pairs confirmed
// gone.
func (x *Index) placementGC() int {
	pairs := x.placement.pairs()
	if len(pairs) == 0 {
		return 0
	}
	// Referenced pairs: every replica of every remote-backed ring shard.
	x.mu.RLock()
	ref := make(map[string]map[string]struct{})
	for _, sh := range x.shards {
		r, ok := sh.(*remoteShard)
		if !ok {
			continue
		}
		set := ref[r.key]
		if set == nil {
			set = make(map[string]struct{}, len(r.replicas))
			ref[r.key] = set
		}
		for _, peer := range r.replicas {
			set[peer] = struct{}{}
		}
	}
	x.mu.RUnlock()

	client := x.placementClient()
	deleted := 0
	for _, pr := range pairs {
		key, peer := pr[0], pr[1]
		if set := ref[key]; set != nil {
			if _, live := set[peer]; live {
				continue
			}
		}
		if err := deleteShardSnapshot(client, peer, key); err != nil {
			if m := x.metrics; m != nil {
				m.placementGCErrors.Inc()
			}
			continue
		}
		x.placement.forget(key, peer)
		deleted++
	}
	if deleted > 0 {
		if m := x.metrics; m != nil {
			m.placementDeleted.Add(uint64(deleted))
		}
	}
	return deleted
}
