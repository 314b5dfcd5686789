package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
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
//	merge    fan.merge: every shard's matches and the exact buffer scan in one buffer, deleted ids dropped, ascending ids
//	rank     Search: narrow — the threshold floor, then cpindex.Top for a best match — and the limit ranking
//
// A similarity query is one query whatever it asks for: the shards answer
// every match over λ, and a best-match query is that answer reduced to its
// top match (score descending, lower id on ties), so it finds a match
// exactly when the all-matches query does, at every threshold. A batch is
// the same pipeline over one snapshot, its queries merged in parallel on
// the execution layer. Only the plan can fail: every shard was validated
// when it was built or opened, so nothing after it returns an error.

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
	// the index cannot see below the threshold it was built for. Either way
	// the answer is the all-matches answer narrowed to the floor, and a
	// best-of query returns its top match (ties to the lower id), found
	// exactly when All finds one. In containment mode it is required, in
	// (0,1].
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
// false) — the top of the all-matches answer at the same threshold; its ID
// is -1 when it does not apply. Matches carries the match list of All
// similarity queries and of every containment query; it may alias a
// result-cache entry and must be treated as read-only.
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
	kindAll     queryKind = iota // every match over λ: every similarity query, best-of included
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
	// for kindAll, whose threshold is the index λ. Part of the result
	// cache's key.
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
func newPlan(mode Mode, threshold, lambda float64) (plan, error) {
	switch mode {
	case "", ModeSimilarity:
		if threshold != 0 && (threshold < lambda || threshold > 1) {
			return plan{}, fmt.Errorf(
				"%w: similarity threshold %v outside [%v, 1] — the index only sees matches at its build threshold λ=%v or above",
				ErrBadRequest, threshold, lambda, lambda)
		}
		return plan{kind: kindAll}, nil
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
// Similarity queries return every match at or above the threshold with
// All, or else the top one of them — highest similarity, ties to the lower
// id. Containment queries return every indexed set y whose containment of
// the query C(q, y) = |q ∩ y| / |q| reaches the threshold: candidates come
// from each shard's LSH Ensemble structure (recall ≈ the contain package's
// TargetProb per true match) and every candidate is exact-verified, so
// precision is 1.0. Tombstoned ids are never returned, and buffered appends
// are scanned exactly. Every mode is deterministic: answers are
// byte-identical across shard counts, partition schemes, worker counts and
// storage tiers.
//
// An error, always wrapping ErrBadRequest, reports an invalid request.
func (x *Index) Search(req Request, tr *QueryTrace) (Result, error) {
	p, err := newPlan(req.Mode, req.Threshold, x.lambda)
	if err != nil {
		return noMatch, err
	}
	floor := req.Threshold
	if p.kind == kindContain {
		floor = 0 // the plan's threshold, which the shards applied
	}
	res := x.query(p, intset.Normalize(req.Set), floor, req.All || p.kind == kindContain, tr)
	res.Matches = rankLimit(res.Matches, req.Limit)
	return res, nil
}

// narrow is the one floor-then-reduce step: the answer to a query whose
// match list is ms, ascending by id — a cache entry or, when pooled, a
// pooled merge buffer. With all it is the matches scoring at least floor, as
// a list that outlives the buffer: ms itself when it is a cache entry and the
// floor drops nothing, else one exact-size copy. Otherwise it is their top
// match (cpindex.Top), which is ms's own top when that clears the floor —
// nothing under the top can — so a best-of answer allocates nothing.
func narrow(ms []Match, floor float64, all, pooled bool) Result {
	if !all {
		best, ok := cpindex.Top(ms)
		if !ok || best.Sim < floor {
			return noMatch
		}
		return Result{Found: true, Best: best}
	}
	n := 0
	for _, m := range ms {
		if m.Sim >= floor {
			n++
		}
	}
	out := noMatch
	switch {
	case n == 0:
	case n == len(ms) && !pooled:
		out.Matches = ms
	default:
		out.Matches = make([]Match, 0, n)
		for _, m := range ms {
			if m.Sim >= floor {
				out.Matches = append(out.Matches, m)
			}
		}
	}
	out.Found = n > 0
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
// global id. With the cache off it allocates one exact-size copy of the
// answer, nothing when nothing matches (TestQueryMetricsAllocs pins it); a
// cache hit allocates nothing. The slice may alias a cache entry: read-only.
// It cannot fail, whatever its name says: benchmark/ calls it by this one.
func (x *Index) QueryAllErr(q []uint32) []Match {
	return x.query(plan{kind: kindAll}, q, 0, true, nil).Matches
}

// matchBufs pools the merge buffers: a query's shards and buffer scans all
// append into one, so a best-of query reduces its answer in place and
// allocates nothing, and a list that outlives the query is copied out of it
// once, at its exact size.
var matchBufs = sync.Pool{New: func() any { return new([]Match) }}

// query is the pipeline's timed stage for one query: q's matches under p —
// a cache entry, or merged into a pooled buffer and, with the cache on,
// cached at their exact size — narrowed to floor and, unless all, reduced
// to the top match.
func (x *Index) query(p plan, q []uint32, floor float64, all bool, tr *QueryTrace) Result {
	start := time.Now()
	at := x.cacheNow()
	buf := matchBufs.Get().(*[]Match)
	ms, hit := at.lookup(p, q, tr)
	pooled := !hit
	if !hit {
		if p.kind == kindContain {
			p.signer = x.signer
			p.sig = x.signer.get().Sign(q)
		}
		f := x.fan(p)
		*buf = f.merge((*buf)[:0], q, tr)
		ms = *buf
		if at.c != nil {
			ms, pooled = narrow(ms, 0, true, true).Matches, false
			at.put(p, q, ms)
		}
	}
	res := narrow(ms, floor, all, pooled)
	matchBufs.Put(buf)
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
func (at cacheAt) lookup(p plan, q []uint32, tr *QueryTrace) ([]Match, bool) {
	if len(q) == 0 {
		return nil, true
	}
	if at.c == nil {
		return nil, false
	}
	ms, hit := at.c.get(at.v, p, q)
	if hit && tr != nil {
		tr.CacheHit = true
	}
	return ms, hit
}

func (at cacheAt) put(p plan, q []uint32, ms []Match) {
	if at.c != nil {
		at.c.put(at.v, p, q, ms)
	}
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
	miss := make([]int, 0, len(qs))
	for i, q := range qs {
		if ms, done := at.lookup(p, q, nil); done {
			out[i] = ms
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return out
	}
	f := x.fan(p)
	exec.RunItems(exec.EffectiveWorkers(f.workers), len(miss), func(j int) {
		buf := matchBufs.Get().(*[]Match)
		*buf = f.merge((*buf)[:0], qs[miss[j]], nil)
		out[miss[j]] = narrow(*buf, 0, true, true).Matches
		matchBufs.Put(buf)
	})
	// Stored in query order, not completion order: the cache's LRU state
	// stays deterministic for any worker count.
	for _, i := range miss {
		at.put(p, qs[i], out[i])
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

// merge appends q's answer to dst and returns the grown slice: every
// shard's matches in ring order, remapped to global ids with the deleted ones
// dropped in place, then the buffers scanned exactly, and the appended tail
// sorted ascending by id. Shards are disjoint and ids unique, so the answer
// is independent of the ring's order. A non-nil tr records per-shard timing
// and the candidate counts every shard call returns anyway; the calls, the
// merge and its answer are identical either way.
func (f *fan) merge(dst []Match, q []uint32, tr *QueryTrace) []Match {
	base := len(dst)
	for i, sh := range f.shards {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		n := len(dst)
		var st cpindex.QueryStats
		dst, st = sh.query(f.p, q, dst)
		matched := len(dst) - n
		for _, m := range dst[n:] {
			if id := sh.ids[m.ID]; !f.deleted.Get(id) {
				dst[n] = Match{ID: id, Sim: m.Sim}
				n++
			}
		}
		dst = dst[:n]
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
	scanned := len(f.side.sets)
	for _, b := range f.sealing {
		dst = f.scan(dst, *b, q)
		scanned += len(b.sets)
	}
	dst = f.scan(dst, f.side, q)
	if tr != nil {
		tr.add(ShardTrace{Shard: "buffer", Kind: "buffer", Ns: time.Since(t0).Nanoseconds(),
			Candidates: uint64(scanned), Verified: uint64(scanned)})
	}
	slices.SortFunc(dst[base:], func(a, b Match) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// scan appends the live matches of one exactly-scanned buffer to dst —
// buffered appends need no candidate structure, so they keep recall 1.0.
func (f *fan) scan(dst []Match, b sideBuffer, q []uint32) []Match {
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
			dst = append(dst, Match{ID: b.ids[i], Sim: score})
		}
	}
	return dst
}
