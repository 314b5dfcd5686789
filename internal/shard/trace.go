package shard

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
	// Candidates and Verified sum the shards' pipeline counts plus the
	// exact buffer scans.
	Candidates uint64 `json:"candidates"`
	Verified   uint64 `json:"verified"`
	// Shards is one entry per consulted shard in ring order, plus one
	// trailing "buffer" entry covering the exact scans of the side buffer
	// and any in-flight seals.
	Shards []ShardTrace `json:"shards,omitempty"`
}

// ShardTrace is one shard's share of a traced query.
type ShardTrace struct {
	// Shard names the entry: "local-<ring index>", "cold-<ring index>" or
	// "buffer".
	Shard string `json:"shard"`
	// Kind is "local", "cold" or "buffer".
	Kind string `json:"kind"`
	// Ns is the time spent answering this shard.
	Ns int64 `json:"ns"`
	// Matches counts the shard's raw matches before tombstone filtering.
	Matches int `json:"matches"`
	// Candidates and Verified are the shard's pipeline counts.
	Candidates uint64 `json:"candidates"`
	Verified   uint64 `json:"verified"`
}

// add appends one shard entry and folds its counts into the totals.
func (tr *QueryTrace) add(e ShardTrace) {
	tr.Candidates += e.Candidates
	tr.Verified += e.Verified
	tr.Shards = append(tr.Shards, e)
}
