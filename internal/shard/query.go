package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cpindex"
	"repro/internal/exec"
	"repro/internal/intset"
)

// The query pipeline. Every query — best match, all matches, containment,
// single or batched, traced or not — takes the same six steps:
//
//	plan     newPlan: the one place mode and threshold are validated
//	time     query / QueryBatchErr: latency histogram by kind, trace total
//	lookup   cacheAt.lookup / put: the empty-query rule and the result cache
//	snapshot fan: one read-locked view of the ring, the buffers and the deleted set
//	merge    fan.merge: every shard asked, deleted ids filtered, exact buffer scan, canonical order
//	rank     Search: threshold narrowing and limit ranking over the merged answer
//
// A batch is the same pipeline over one snapshot, its queries merged in
// parallel on the execution layer. Only the plan can fail: every shard was
// validated when it was built or opened, so nothing after it returns an
// error.

// Mode selects the semantics of a Request: what "match" means and what
// the threshold is measured against.
type Mode string

const (
	// ModeSimilarity matches indexed sets by Jaccard similarity
	// J(q, x) = |q ∩ x| / |q ∪ x| — the CPSJoin workload the index is
	// built for. The index's build threshold λ is the floor; a request
	// threshold may narrow results further but never below λ.
	ModeSimilarity Mode = "similarity"
	// ModeContainment matches indexed sets by Jaccard containment
	// C(q, x) = |q ∩ x| / |q| — "find indexed sets that contain most of
	// my query", the domain-discovery workload of LSH Ensemble (Zhu et
	// al., VLDB 2016). The threshold is per query, anywhere in (0,1].
	ModeContainment Mode = "containment"
)

// Match is one search result: the global id of an indexed set and its
// exact score (Jaccard similarity or containment, by mode).
type Match = cpindex.Match

// Request is one search request — the single request shape of the index,
// and the JSON body of /v1/query.
type Request struct {
	// Set is the query set; it is normalized (sorted, deduplicated) in
	// place on entry, so callers may pass raw token ids.
	Set []uint32 `json:"set"`
	// Mode selects the search semantics; the zero value means
	// ModeSimilarity.
	Mode Mode `json:"mode,omitempty"`
	// Threshold is the match floor. In similarity mode, zero means the
	// index's build threshold λ, and explicit values must lie in [λ, 1] —
	// the index cannot see below the threshold it was built for; above λ
	// it narrows the all-matches answer, and a best-of query returns the top
	// match left (ties to the lower id), found exactly when All finds one.
	// In containment mode it is required, in (0,1].
	Threshold float64 `json:"threshold,omitempty"`
	// All requests every match instead of the single best one.
	// Containment queries always return every match, so All is implied
	// there.
	All bool `json:"all"`
	// Limit, when positive, re-ranks the matches by score (ties broken
	// toward the lower id) and keeps the top Limit. Zero keeps every
	// match in canonical ascending-id order.
	Limit int `json:"limit,omitempty"`
}

// Result is a Search answer. Found reports whether anything matched.
// Best is the single best match of a best-of similarity query (All
// false); its ID is -1 when it does not apply. Matches carries the match
// list of All similarity queries and of every containment query; it may
// alias a result-cache entry and must be treated as read-only.
type Result struct {
	Found   bool
	Best    Match
	Matches []Match
}

// noMatch is the answer to a query nothing matches — and to the empty
// query, which no shard is asked about.
var noMatch = Result{Best: Match{ID: -1}}

// ErrBadRequest marks a Search error: the request itself is invalid
// (unknown mode, threshold out of range). It is the only error Search
// returns.
var ErrBadRequest = errors.New("shard: bad request")

// queryKind is what a plan computes per shard.
type queryKind uint8

const (
	kindBest    queryKind = iota // the single best match over λ
	kindAll                      // every match over λ
	kindContain                  // every set containing the query at plan.threshold
	// kindBatch is QueryBatchErr's latency-histogram slot: a batch answers
	// kindAll per query and is timed as one operation.
	kindBatch
	numKinds
)

// plan is a validated query: what every shard is asked.
type plan struct {
	kind queryKind
	// threshold is the containment threshold of a kindContain plan; zero
	// for the similarity kinds, whose threshold is the index λ. Part of the
	// result cache's key.
	threshold float64
	// signer is the ring's containment signer and sig the query's signature
	// under it, taken once a containment query has missed the cache: every
	// shard's containment side shares signer, so none signs the query again,
	// and a shard whose side is not built yet builds it under signer.
	signer *ringSigner
	sig    []uint32
}

// newPlan is the repository's one mode and threshold validation. lambda is
// the floor a similarity threshold may not go below.
func newPlan(mode Mode, all bool, threshold, lambda float64) (plan, error) {
	switch mode {
	case "", ModeSimilarity:
		if threshold != 0 && (threshold < lambda || threshold > 1) {
			return plan{}, fmt.Errorf(
				"%w: similarity threshold %v outside [%v, 1] — the index only sees matches at its build threshold λ=%v or above",
				ErrBadRequest, threshold, lambda, lambda)
		}
		if all {
			return plan{kind: kindAll}, nil
		}
		return plan{kind: kindBest}, nil
	case ModeContainment:
		if threshold <= 0 || threshold > 1 {
			return plan{}, fmt.Errorf("%w: containment mode needs a threshold in (0,1], got %v",
				ErrBadRequest, threshold)
		}
		return plan{kind: kindContain, threshold: threshold}, nil
	default:
		return plan{}, fmt.Errorf("%w: unknown query mode %q (want %q or %q)",
			ErrBadRequest, mode, ModeSimilarity, ModeContainment)
	}
}

// Search is the index's one query entry point: one request shape, one
// path, both workloads. A non-nil tr is filled with the per-shard breakdown
// of the answer actually returned.
//
// Similarity queries return the best match — highest similarity, ties to
// the lower id — or every match with All. Containment queries return
// every indexed set y whose containment of the query C(q, y) = |q ∩ y| /
// |q| reaches the threshold: candidates come from each shard's LSH
// Ensemble structure (recall ≈ the contain package's TargetProb per true
// match) and every candidate is exact-verified, so precision is 1.0.
// Tombstoned ids are never returned, and buffered appends are scanned
// exactly. Every mode is deterministic: answers are byte-identical across
// shard counts, partition schemes, worker counts and storage tiers.
//
// An error, always wrapping ErrBadRequest, reports an invalid request.
func (x *Index) Search(req Request, tr *QueryTrace) (Result, error) {
	p, err := newPlan(req.Mode, req.All, req.Threshold, x.lambda)
	if err != nil {
		return noMatch, err
	}
	floor := req.Threshold
	narrowed := p.kind != kindContain && floor > x.lambda
	if narrowed {
		p.kind = kindAll // a shard's best over λ may miss floor while another set clears it
	}
	res := x.query(p, intset.Normalize(req.Set), tr)
	if narrowed {
		res = narrow(res.Matches, floor, req.All)
	}
	res.Matches = rankLimit(res.Matches, req.Limit)
	return res, nil
}

// narrow answers a similarity query above λ from its all-matches answer ms,
// ascending by id: the matches scoring at least floor, or the top one of
// them (ties to the lower id) if not all. ms may be a live cache entry.
func narrow(ms []Match, floor float64, all bool) Result {
	out := noMatch
	for _, m := range ms {
		switch {
		case m.Sim < floor:
		case all:
			out.Matches = append(out.Matches, m)
			out.Found = true
		case !out.Found || m.Sim > out.Best.Sim:
			out.Best, out.Found = m, true
		}
	}
	return out
}

// rankLimit applies Request.Limit: re-rank by score descending (ties by
// ascending id) and keep the top n. It sorts a copy — the input may be a
// live cache entry. A non-positive limit returns the input untouched, in
// its canonical id order.
func rankLimit(ms []Match, limit int) []Match {
	if limit <= 0 || ms == nil {
		return ms
	}
	ranked := append([]Match(nil), ms...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Sim != ranked[j].Sim {
			return ranked[i].Sim > ranked[j].Sim
		}
		return ranked[i].ID < ranked[j].ID
	})
	if len(ranked) > limit {
		ranked = ranked[:limit]
	}
	return ranked
}

// QueryAllErr is the all-matches form of the pipeline for an already
// normalized query: every match across the ring and the buffers, sorted by
// global id, allocation-free with the cache off. The slice may alias a cache
// entry: read-only. It cannot fail, whatever its name says: benchmark/
// calls it by this one.
func (x *Index) QueryAllErr(q []uint32) []Match {
	return x.query(plan{kind: kindAll}, q, nil).Matches
}

// query is the pipeline's timed stage for one query.
func (x *Index) query(p plan, q []uint32, tr *QueryTrace) Result {
	start := time.Now()
	res := x.queryCached(p, q, tr)
	x.observe(p.kind, start, tr)
	return res
}

// observe closes a timed stage: the kind's latency histogram and the trace
// total. Plain atomic updates — the hot path stays free of closures and
// allocations.
func (x *Index) observe(kind queryKind, start time.Time, tr *QueryTrace) {
	if m := x.metrics; m != nil {
		m.queryLat[kind].Observe(time.Since(start))
	}
	if tr != nil {
		tr.TotalNs = time.Since(start).Nanoseconds()
	}
}

// cacheAt is the result cache as one query or one batch sees it: the
// installed cache (nil when disabled) and the version its entries are
// keyed on. The version is read before the state snapshot, so an answer
// computed afterwards reflects a state at least as new as the key claims;
// a concurrent mutation bumps the version and orphans the entry rather
// than letting it serve stale.
type cacheAt struct {
	c *resultCache
	v uint64
}

func (x *Index) cacheNow() cacheAt {
	c := x.cache.Load()
	if c == nil {
		return cacheAt{}
	}
	return cacheAt{c: c, v: x.version.Load()}
}

// lookup answers q without consulting any shard when it can: the empty
// query matches nothing — it is never fanned out and never cached — and a
// cached answer is the answer the shards would give.
func (at cacheAt) lookup(p plan, q []uint32, tr *QueryTrace) (Result, bool) {
	if len(q) == 0 {
		return noMatch, true
	}
	if at.c == nil {
		return noMatch, false
	}
	res, hit := at.c.get(at.v, p, q)
	if hit && tr != nil {
		tr.CacheHit = true
	}
	return res, hit
}

func (at cacheAt) put(p plan, q []uint32, res Result) {
	if at.c != nil {
		at.c.put(at.v, p, q, res)
	}
}

func (x *Index) queryCached(p plan, q []uint32, tr *QueryTrace) Result {
	at := x.cacheNow()
	if res, done := at.lookup(p, q, tr); done {
		return res
	}
	if p.kind == kindContain {
		p.signer = x.signer
		p.sig = x.signer.get().Sign(q)
	}
	f := x.fan(p)
	res := f.merge(q, tr)
	at.put(p, q, res)
	return res
}

// QueryBatchErr answers many normalized queries at once against one
// read-only snapshot of the ring: results[i] is QueryAllErr(qs[i]) against
// that snapshot, for any worker count. Queries the cache answers are
// filled from it; the rest are merged in parallel across queries on the
// execution layer. Like QueryAllErr it cannot fail, and benchmark/ calls it
// by this name.
func (x *Index) QueryBatchErr(qs [][]uint32) [][]Match {
	start := time.Now()
	out := x.queryBatchCached(plan{kind: kindAll}, qs)
	x.observe(kindBatch, start, nil)
	return out
}

func (x *Index) queryBatchCached(p plan, qs [][]uint32) [][]Match {
	at := x.cacheNow()
	out := make([][]Match, len(qs))
	missIdx := make([]int, 0, len(qs))
	miss := make([][]uint32, 0, len(qs))
	for i, q := range qs {
		if res, done := at.lookup(p, q, nil); done {
			out[i] = res.Matches
		} else {
			missIdx = append(missIdx, i)
			miss = append(miss, q)
		}
	}
	if len(miss) == 0 {
		return out
	}
	f := x.fan(p)
	res := make([]Result, len(miss))
	exec.RunItems(exec.EffectiveWorkers(f.workers), len(miss), func(j int) {
		res[j] = f.merge(miss[j], nil)
	})
	// Stored in query order, not completion order: the cache's LRU state
	// stays deterministic for any worker count.
	for j, i := range missIdx {
		out[i] = res[j].Matches
		at.put(p, miss[j], res[j])
	}
	return out
}

// fan is one fan-out over the ring: the plan and one snapshot of the index
// state.
type fan struct {
	p       plan
	lambda  float64
	workers int // the Workers option, resolved only where tasks are spawned

	shards  []*localShard
	sealing []*sideBuffer
	side    sideBuffer
	deleted *intset.Bitmap
}

func (x *Index) fan(p plan) fan {
	f := fan{p: p, lambda: x.lambda, workers: x.opt.Workers}
	f.shards, f.sealing, f.side, f.deleted = x.snapshot()
	return f
}

// merge is the per-query merge: every shard's answer in ring order,
// deleted ids filtered, the buffers scanned exactly, and one canonical order
// — the best match under (score desc, id asc), match lists ascending by
// global id. Shards are disjoint and ids unique, so the answer is
// independent of the ring's order. A non-nil tr records per-shard timing
// and the candidate counts every shard call returns anyway; the calls, the
// merge and its answer are identical either way.
func (f *fan) merge(q []uint32, tr *QueryTrace) Result {
	out := noMatch
	for i, sh := range f.shards {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		res, st := sh.query(f.p, q)
		matched := len(res.Matches)
		if f.p.kind == kindBest && res.Found {
			matched = 1
			if f.deleted.Get(res.Best.ID) {
				// Rare path — the shard's chosen match was deleted — so the
				// shard is rescanned for its best live match with a plain
				// serial call: a delete hides exactly one set instead of
				// masking its neighbors.
				res, _ = sh.query(plan{kind: kindAll}, q)
			} else {
				f.keep(&out, res.Best)
			}
		}
		for _, m := range res.Matches {
			if !f.deleted.Get(m.ID) {
				f.keep(&out, m)
			}
		}
		if tr != nil {
			name, kind := sh.traceName(i)
			tr.add(ShardTrace{Shard: name, Kind: kind, Ns: time.Since(t0).Nanoseconds(), Matches: matched,
				Candidates: st.Candidates, Verified: st.Verified})
		}
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	scanned := 0
	for _, b := range f.sealing {
		scanned += f.scan(&out, *b, q)
	}
	scanned += f.scan(&out, f.side, q)
	if tr != nil {
		tr.add(ShardTrace{Shard: "buffer", Kind: "buffer", Ns: time.Since(t0).Nanoseconds(),
			Candidates: uint64(scanned), Verified: uint64(scanned)})
	}
	if f.p.kind != kindBest {
		sort.Slice(out.Matches, func(i, j int) bool { return out.Matches[i].ID < out.Matches[j].ID })
		out.Found = len(out.Matches) > 0
	}
	return out
}

// keep folds one live match into the answer: the running best under the
// (score desc, id asc) total order, or one more entry of the match list.
func (f *fan) keep(out *Result, m Match) {
	switch {
	case f.p.kind != kindBest:
		out.Matches = append(out.Matches, m)
	case !out.Found || m.Sim > out.Best.Sim || (m.Sim == out.Best.Sim && m.ID < out.Best.ID):
		out.Best, out.Found = m, true
	}
}

// scan folds one exactly-scanned buffer into the answer — buffered appends
// need no candidate structure, so they keep recall 1.0 — and returns how
// many sets it compared.
func (f *fan) scan(out *Result, b sideBuffer, q []uint32) int {
	for i, set := range b.sets {
		if f.deleted.Get(b.ids[i]) {
			continue
		}
		var score float64
		var ok bool
		if f.p.kind == kindContain {
			score, ok = intset.ContainmentAtLeast(q, set, f.p.threshold)
		} else {
			score, ok = intset.JaccardAtLeast(q, set, f.lambda)
		}
		if ok {
			f.keep(out, Match{ID: b.ids[i], Sim: score})
		}
	}
	return len(b.sets)
}
