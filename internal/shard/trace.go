package shard

import "sort"

// QueryTrace is the per-query breakdown behind the slow-query log and the
// "debug":true response field: where one query's time went, shard by
// shard, plus its candidate-pipeline totals and cache outcome. Traced
// queries run exactly the normal merge — tracing only times and counts
// around it — so a trace is always of the answer actually returned.
// Tracing allocates (the per-shard entries), which is why it is opt-in
// per request rather than always-on: the plain query path keeps its
// zero-allocation contract.
type QueryTrace struct {
	// CacheHit reports whether the result cache answered; a hit has no
	// shard entries (no shard was consulted).
	CacheHit bool `json:"cache_hit"`
	// TotalNs is the whole call, snapshot to merged answer.
	TotalNs int64 `json:"total_ns"`
	// Candidates and Verified sum the local shards' pipeline counts plus
	// the exact buffer scans. Remote shards' internal counts stay on their
	// peers (visible in the peers' own /metrics).
	Candidates uint64 `json:"candidates"`
	Verified   uint64 `json:"verified"`
	// Shards is one entry per consulted shard in ring order, plus one
	// trailing "buffer" entry covering the exact scans of the side buffer
	// and any in-flight seals.
	Shards []ShardTrace `json:"shards,omitempty"`
}

// ShardTrace is one shard's share of a traced query.
type ShardTrace struct {
	// Shard names the entry: "local-<ring index>", "cold-<ring index>",
	// the remote shard key, or "buffer".
	Shard string `json:"shard"`
	// Kind is "local", "cold", "remote" or "buffer".
	Kind string `json:"kind"`
	// Ns is the time spent answering this shard. Remote shards are asked
	// in parallel, so the entries can sum to more than TotalNs.
	Ns int64 `json:"ns"`
	// Matches counts the shard's raw matches before tombstone filtering.
	Matches int `json:"matches"`
	// Candidates and Verified are the shard's pipeline counts; zero for
	// remote shards (counted peer-side).
	Candidates uint64 `json:"candidates"`
	Verified   uint64 `json:"verified"`
}

// add appends one shard entry and folds its counts into the totals.
func (tr *QueryTrace) add(e ShardTrace) {
	tr.Candidates += e.Candidates
	tr.Verified += e.Verified
	tr.Shards = append(tr.Shards, e)
}

// PeerHealth is one peer's serving view in a health report: the passive
// health bit plus its lifetime RPC counters.
type PeerHealth struct {
	Peer      string `json:"peer"`
	Healthy   bool   `json:"healthy"`
	RPCs      uint64 `json:"rpcs"`
	Errors    uint64 `json:"errors"`
	Failovers uint64 `json:"failovers"`
}

// HealthStatus is the readiness report behind /healthz and /readyz. Ready
// is false exactly when some remote-backed shard is unanswerable: every
// replica's last RPC failed and no local copy remains — the condition
// under which QueryErr would return an error. An all-local ring is always
// ready.
type HealthStatus struct {
	Ready        bool   `json:"ready"`
	Generation   int    `json:"generation"`
	Version      uint64 `json:"version"`
	Shards       int    `json:"shards"`
	RemoteShards int    `json:"remote_shards"`
	// UnreadyShards lists the remote shard keys with no healthy replica
	// and no local copy.
	UnreadyShards []string `json:"unready_shards,omitempty"`
	// Peers covers every peer referenced by the current ring, sorted by
	// URL. Health is passive — observed from real query RPCs, not probes —
	// so a never-contacted peer reports healthy.
	Peers []PeerHealth `json:"peers,omitempty"`
}

// Health reports the index's current serving health from the ring and the
// passive per-peer counters.
func (x *Index) Health() HealthStatus {
	x.mu.RLock()
	shards := x.shards
	gen := x.generation
	x.mu.RUnlock()

	st := HealthStatus{
		Ready:      true,
		Generation: gen,
		Version:    x.version.Load(),
		Shards:     len(shards),
	}
	seen := make(map[string]bool)
	for _, sh := range shards {
		r, ok := sh.(*remoteShard)
		if !ok {
			continue
		}
		st.RemoteShards++
		answerable := r.local != nil
		for _, base := range r.replicas {
			pm := x.metrics.peer(base)
			if pm.isHealthy() {
				answerable = true
			}
			if !seen[base] {
				seen[base] = true
				ph := PeerHealth{Peer: base, Healthy: pm.isHealthy()}
				if pm != nil {
					ph.RPCs = pm.lat.Count()
					ph.Errors = pm.rpcErrors.Value()
					ph.Failovers = pm.failovers.Value()
				}
				st.Peers = append(st.Peers, ph)
			}
		}
		if !answerable {
			st.Ready = false
			st.UnreadyShards = append(st.UnreadyShards, r.key)
		}
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Peer < st.Peers[j].Peer })
	return st
}
