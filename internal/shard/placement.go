package shard

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/snapshot"
)

// Placement: the control plane that turns the static shard-shipping
// substrate (Distribute) into a running fleet. Three latent problems
// follow from one-shot placement — shards sealed after a Distribute stay
// local forever, remote-backed shards can never be compacted, and peers
// retain every key ever shipped to them until an explicit DELETE — and
// all three reduce to the same missing piece: a durable record of what
// this coordinator has shipped where, plus a loop that reconciles it
// against the current ring.
//
// placementState is that record: every (key, peer) pair ever shipped,
// the peers and options of the last Distribute pass, and a pass epoch.
// It is persisted in the manifest, so a restarted coordinator still owns
// (and eventually garbage-collects) the keys of its previous life.
//
// The controller (StartPlacement) is the loop: it re-runs Distribute
// under the recorded options whenever a seal or compaction changes the
// ring — which ships newly sealed and freshly merged shards, and sweeps
// superseded keys off peers — and it probes peer health actively on a
// fixed cadence with per-peer retry backoff, flipping the same
// cps_peer_healthy bit the passive RPC path maintains. With Rebalance
// enabled it also re-ships replicas away from persistently unhealthy
// peers. Every transition preserves the byte-identity contract: shipping
// and recalling move where a shard answers from, never what it answers.

// placementState is the coordinator's record of shipped shards: which
// peers hold which keys, and the parameters of the last placement pass.
// Guarded by its own mutex — it is read by Save and Stats while
// Distribute mutates it.
type placementState struct {
	mu    sync.Mutex
	peers []string
	opts  DistributeOptions
	epoch int
	// shipped maps shard key -> the set of peer bases it was shipped to.
	// Pairs are recorded when an upload begins and removed only when a
	// DELETE against the peer succeeds, so the record errs on the side of
	// "the peer might still hold it".
	shipped map[string]map[string]struct{}
}

// beginPass records the parameters of a placement pass and advances the
// epoch.
func (p *placementState) beginPass(bases []string, opts DistributeOptions) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peers = append([]string(nil), bases...)
	p.opts = opts
	p.epoch++
}

// recorded returns the peers and options of the last pass (nil peers
// when no pass ever ran).
func (p *placementState) recorded() ([]string, DistributeOptions) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peers, p.opts
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
// it distributes again.
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

// placementClient returns the HTTP client placement housekeeping
// (GC deletes, rebalance ships) should use: the recorded Distribute
// client, or the shared default.
func (x *Index) placementClient() *http.Client {
	_, opts := x.placement.recorded()
	if opts.Client != nil {
		return opts.Client
	}
	return defaultRemoteClient
}

// placementGC sweeps superseded hosted shards off peers: every recorded
// (key, peer) pair that the current ring does not reference — because a
// re-distribution shipped new content, a compaction recalled and merged
// the shard, a rebalance moved a replica, or a failed pass orphaned an
// upload — is DELETEd from its peer. A pair is forgotten only when the
// peer confirms, so an unreachable peer's pairs are retried on every
// later sweep; the sweep is idempotent throughout (peer DELETEs are).
// It returns the number of pairs confirmed gone.
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

// PlacementOptions configure the background placement controller.
type PlacementOptions struct {
	// Interval is the cadence of unconditional reconciliation passes, a
	// safety net under the event-driven ones (default 30s; negative
	// disables periodic passes, leaving seal/compaction triggers only).
	Interval time.Duration
	// ProbeInterval is the active health-probe cadence (default 5s;
	// negative disables probing).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration
	// UnhealthyAfter is the number of consecutive probe failures after
	// which a peer's health bit flips false (default 3). Until then the
	// bit is left to the passive RPC path.
	UnhealthyAfter int
	// ProbeBackoffMax caps the per-peer exponential retry backoff a
	// failing peer's probes back off under (default 1m).
	ProbeBackoffMax time.Duration
	// Rebalance re-ships replicas away from peers that stay unhealthy
	// (per UnhealthyAfter) to healthy ones, so replication degrades
	// gracefully instead of silently thinning.
	Rebalance bool
}

func (o *PlacementOptions) withDefaults() PlacementOptions {
	opt := PlacementOptions{}
	if o != nil {
		opt = *o
	}
	if opt.Interval == 0 {
		opt.Interval = 30 * time.Second
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = 5 * time.Second
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = 2 * time.Second
	}
	if opt.UnhealthyAfter <= 0 {
		opt.UnhealthyAfter = 3
	}
	if opt.ProbeBackoffMax <= 0 {
		opt.ProbeBackoffMax = time.Minute
	}
	return opt
}

// placementController is the background loop: one goroutine per index
// (single-flight like the auto-compaction goroutine), woken by seal and
// compaction triggers, its own pass ticker, and the probe ticker.
type placementController struct {
	x    *Index
	opt  PlacementOptions
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
	// probeClient is dedicated so probe timeouts never shorten shipping
	// or query deadlines.
	probeClient *http.Client
	// probe holds the controller-goroutine-local per-peer probe state.
	probe map[string]*probeState
}

// probeState is one peer's probe bookkeeping: consecutive failures and
// the capped exponential backoff window before the next attempt.
type probeState struct {
	fails   int
	backoff time.Duration
	next    time.Time
}

// StartPlacement starts the background placement controller against the
// given peers: every seal or compaction triggers a reconciliation pass
// (Distribute under d, which also garbage-collects superseded hosted
// shards), an unconditional pass runs every Interval, and peers are
// health-probed every ProbeInterval. One controller per index; starting
// a second is an error, and StopPlacement stops it.
func (x *Index) StartPlacement(peers []string, d *DistributeOptions, o *PlacementOptions) error {
	bases, err := normalizePeers(peers)
	if err != nil {
		return err
	}
	opts := DistributeOptions{Replicas: 1, KeepLocal: true}
	if d != nil {
		opts = *d
	}
	c := &placementController{
		x:     x,
		opt:   o.withDefaults(),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		probe: make(map[string]*probeState),
	}
	c.probeClient = &http.Client{Timeout: c.opt.ProbeTimeout}
	if !x.controller.CompareAndSwap(nil, c) {
		return fmt.Errorf("shard: placement controller already running")
	}
	x.placement.mu.Lock()
	x.placement.peers = bases
	x.placement.opts = opts
	x.placement.mu.Unlock()
	// Kick once at start so shards sealed before the controller existed
	// (or recorded state restored by Load) reconcile without waiting for
	// the first tick.
	c.kick <- struct{}{}
	go c.run()
	return nil
}

// StopPlacement stops the controller and waits for its goroutine to
// exit. A no-op when none is running.
func (x *Index) StopPlacement() {
	c := x.controller.Swap(nil)
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

// placementKick nudges the controller (if one runs) to reconcile —
// called after seals and compaction swaps. Non-blocking: a kick landing
// while one is already pending coalesces with it.
func (x *Index) placementKick() {
	if c := x.controller.Load(); c != nil {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

func (c *placementController) run() {
	defer close(c.done)
	var passC, probeC <-chan time.Time
	if c.opt.Interval > 0 {
		t := time.NewTicker(c.opt.Interval)
		defer t.Stop()
		passC = t.C
	}
	if c.opt.ProbeInterval > 0 {
		t := time.NewTicker(c.opt.ProbeInterval)
		defer t.Stop()
		probeC = t.C
	}
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			c.pass()
		case <-passC:
			c.pass()
		case <-probeC:
			c.probePeers()
		}
	}
}

// pass runs one reconciliation: Distribute under the recorded options
// ships every local ring shard (newly sealed ones and compaction-merged
// ones alike) and sweeps superseded keys off peers.
func (c *placementController) pass() {
	x := c.x
	peers, opts := x.placement.recorded()
	if len(peers) == 0 {
		return
	}
	err := x.Distribute(peers, &opts)
	if m := x.metrics; m != nil {
		m.placementPasses.Inc()
		if err != nil {
			m.placementErrors.Inc()
		}
	}
}

// probePeers actively checks every recorded peer with a lightweight GET,
// retrying failing peers under capped exponential backoff. The passive
// health bit stays authoritative for flips to healthy (any successful
// RPC or probe); flips to unhealthy need UnhealthyAfter consecutive
// probe failures, so one dropped packet doesn't drain a replica.
func (c *placementController) probePeers() {
	x := c.x
	peers, opts := x.placement.recorded()
	now := time.Now()
	var unhealthy []string
	for _, base := range peers {
		st := c.probe[base]
		if st == nil {
			st = &probeState{}
			c.probe[base] = st
		}
		if now.Before(st.next) {
			if st.fails >= c.opt.UnhealthyAfter {
				unhealthy = append(unhealthy, base)
			}
			continue
		}
		pm := x.metrics.peer(base)
		err := probePeer(c.probeClient, base)
		if pm != nil {
			pm.probes.Inc()
		}
		if err == nil {
			st.fails, st.backoff, st.next = 0, 0, time.Time{}
			if pm != nil {
				pm.healthy.Store(true)
			}
			continue
		}
		st.fails++
		if pm != nil {
			pm.probeFailures.Inc()
		}
		if st.backoff == 0 {
			st.backoff = c.opt.ProbeInterval
		} else {
			st.backoff *= 2
		}
		if st.backoff > c.opt.ProbeBackoffMax {
			st.backoff = c.opt.ProbeBackoffMax
		}
		st.next = now.Add(st.backoff)
		if st.fails >= c.opt.UnhealthyAfter {
			if pm != nil {
				pm.healthy.Store(false)
			}
			unhealthy = append(unhealthy, base)
		}
	}
	if c.opt.Rebalance && len(unhealthy) > 0 {
		bad := make(map[string]bool, len(unhealthy))
		for _, p := range unhealthy {
			bad[p] = true
		}
		x.rebalanceAway(bad, peers, opts)
	}
}

// probePeer is one active health check: a GET of the peer's liveness
// endpoint. Any 200 counts — the probe asks "is the process serving",
// not "is its own ring ready".
func probePeer(client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/v1/healthz: %s: %s", base, resp.Status, readErrBody(resp.Body))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	return nil
}

// rebalanceAway re-ships replicas held by persistently unhealthy peers
// to healthy ones: for each remote-backed shard with a bad replica, the
// verified container bytes are recovered (local copy or live-replica
// fetch-back), shipped to replacement peers, and the ring entry is
// swapped for one with the new replica list — same key, seed, checksum
// and id map, so query answers are untouched and the swap needs no
// version bump. The bad peer's pair goes unreferenced and the next GC
// sweep retires it (retrying until the peer is reachable again). Shards
// whose bytes cannot be recovered right now are skipped, not failed —
// the next probe cycle retries.
func (x *Index) rebalanceAway(bad map[string]bool, peers []string, opts DistributeOptions) int {
	var good []string
	for _, p := range peers {
		if !bad[p] {
			good = append(good, p)
		}
	}
	if len(good) == 0 {
		return 0
	}
	client := opts.Client
	if client == nil {
		client = defaultRemoteClient
	}

	// Ring entries are replaced only under compactMu (the compaction and
	// distribution invariant), which also keeps victim pointer-identity
	// stable for any concurrent compaction pass.
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	defer x.placementGC()
	x.mu.RLock()
	shards := append([]shardBackend(nil), x.shards...)
	x.mu.RUnlock()

	swap := make(map[shardBackend]shardBackend)
	moved := 0
	for _, sh := range shards {
		r, ok := sh.(*remoteShard)
		if !ok {
			continue
		}
		keep := make([]string, 0, len(r.replicas))
		for _, rep := range r.replicas {
			if !bad[rep] {
				keep = append(keep, rep)
			}
		}
		if len(keep) == len(r.replicas) {
			continue
		}
		next := keep
		for _, g := range good {
			if len(next) >= len(r.replicas) {
				break
			}
			if !slices.Contains(next, g) {
				next = append(next, g)
			}
		}
		if len(next) == 0 || slices.Equal(next, keep) {
			// No healthy peer can take the lost replica (all already hold
			// it); leave the shard on its thinned list.
			continue
		}
		raw, err := r.fetchSnapshot()
		if err != nil {
			continue
		}
		shipped := true
		for _, peer := range next {
			if slices.Contains(r.replicas, peer) {
				continue // already hosts it
			}
			x.placement.record(r.key, peer)
			if err := shipShard(client, peer, r.key, r.seed, len(r.ids), r.total, raw); err != nil {
				shipped = false
				break
			}
			x.metrics.peer(peer)
			if m := x.metrics; m != nil {
				m.placementShipped.Inc()
			}
		}
		if !shipped {
			continue
		}
		nr := &remoteShard{
			key:      r.key,
			seed:     r.seed,
			crc:      r.crc,
			ids:      r.ids,
			total:    r.total,
			replicas: next,
			local:    r.local,
			client:   r.client,
			signers:  r.signers,
			metrics:  r.metrics,
		}
		swap[sh] = nr
		moved++
	}
	if len(swap) == 0 {
		return 0
	}
	x.mu.Lock()
	ring := make([]shardBackend, len(x.shards))
	for i, sh := range x.shards {
		if nr, ok := swap[sh]; ok {
			ring[i] = nr
		} else {
			ring[i] = sh
		}
	}
	x.shards = ring
	x.generation++
	x.mu.Unlock()
	if m := x.metrics; m != nil {
		m.placementRebalanced.Add(uint64(moved))
	}
	return moved
}
