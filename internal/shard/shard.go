// Package shard is the sharded serving subsystem: a collection is
// partitioned into K independent Chosen Path search indexes (shards), each
// built as its own task on the shared execution layer, and queries fan out
// across the shards and merge — the LSH Ensemble pattern (Zhu et al.,
// domain search) applied to the CPSJoin substrate.
//
// Sharding buys three serving-layer properties the monolithic index lacks:
//
//   - Build parallelism beyond tree count: K shards × Trees trees are all
//     independent tasks, so construction saturates any core count.
//   - Batch throughput: QueryBatch turns a query slice into tasks over the
//     read-only shards, amortizing scheduling overhead per batch.
//   - Incremental growth: Add buffers new sets in a small side shard that
//     is scanned exactly (recall 1.0 on recent appends) and sealed into
//     the ring as a full shard once it crosses MergeThreshold — the LSM
//     memtable discipline, so a long-running service absorbs updates
//     without ever rebuilding the sealed shards.
//
// Global set ids are preserved across the partition through per-shard id
// maps; every result refers to the caller's original slice. Determinism
// follows the repository-wide contract: per-shard seeds are derived from
// (Seed, shard index) via SeedFor, never from build order, so the same
// seed, options and Add sequence yield identical results for any worker
// count.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contain"
	"repro/internal/cpindex"
	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/tabhash"
)

// Partition selects how Build assigns sets to shards.
type Partition int

const (
	// PartitionContiguous splits the id range [0, n) into Shards nearly
	// equal contiguous ranges — cache-friendly and offset-addressable.
	PartitionContiguous Partition = iota
	// PartitionHash assigns each id by a seeded hash — spreads clustered
	// input (e.g. sorted-by-size collections) evenly across shards.
	PartitionHash
)

func (p Partition) String() string {
	switch p {
	case PartitionContiguous:
		return "contiguous"
	case PartitionHash:
		return "hash"
	default:
		return fmt.Sprintf("partition(%d)", int(p))
	}
}

// Options configures a sharded index. The cpindex knobs (Trees, LeafSize,
// T) apply to every shard.
type Options struct {
	// Shards is the number of primary shards (default 4; values < 1 are
	// raised to 1; values above the set count are clamped down so no shard
	// starts empty).
	Shards int
	// Partition selects the id-to-shard assignment (default contiguous).
	Partition Partition
	// MergeThreshold is the side-shard size at which buffered appends are
	// sealed into the ring as a full shard (default 1024).
	MergeThreshold int
	// Trees, LeafSize, T are the per-shard cpindex parameters (defaults
	// as in cpindex: 10, 32, 128).
	Trees    int
	LeafSize int
	T        int
	// Seed makes construction reproducible; shard k derives its seed via
	// SeedFor(Seed, k).
	Seed uint64
	// Workers parallelizes Build, seal, and QueryBatch on the shared
	// execution layer: 0 runs sequentially, negative selects GOMAXPROCS.
	// Results are identical for any worker count.
	Workers int
	// CacheSize enables the hot-query result cache with room for that
	// many entries (0, the default, disables it). Entries are keyed on
	// the index version, which every mutation bumps, so a cached answer
	// is always the answer the uncached path would give; see resultCache.
	CacheSize int

	// AutoCompact runs Compact in a background goroutine after every seal,
	// so a long-running service reclaims small shards and tombstones
	// without operator intervention. Queries are never blocked either way;
	// see Compact for the policy knobs below.
	AutoCompact bool
	// CompactSmall is the shard size at or below which a ring shard is a
	// merge candidate (default 2*MergeThreshold — sealed side shards
	// qualify, full-size primaries do not).
	CompactSmall int
	// CompactMinShards is the number of small shards required before a
	// size-triggered merge runs (default 2: merging fewer cannot shrink
	// the ring).
	CompactMinShards int
	// CompactTombstoneRatio is the dead fraction at which a shard of any
	// size is rewritten to reclaim its tombstones (default 0.3; values
	// above 1 disable ratio-triggered rewrites).
	CompactTombstoneRatio float64
}

func (o *Options) withDefaults() Options {
	opt := Options{}
	if o != nil {
		opt = *o
	}
	if opt.Shards <= 0 {
		opt.Shards = 4
	}
	if opt.MergeThreshold <= 0 {
		opt.MergeThreshold = 1024
	}
	if opt.CompactSmall <= 0 {
		opt.CompactSmall = 2 * opt.MergeThreshold
	}
	if opt.CompactMinShards <= 0 {
		opt.CompactMinShards = 2
	}
	if opt.CompactTombstoneRatio <= 0 {
		opt.CompactTombstoneRatio = 0.3
	}
	return opt
}

// SeedFor derives the construction seed of shard k from the index seed.
// It is exported so callers can reproduce one shard's structure with a
// standalone cpindex/SearchIndex build (the equivalence the tests pin).
func SeedFor(seed uint64, k int) uint64 {
	return tabhash.DeriveSeed(seed, 0x5a17, uint64(k))
}

// ContainSeed derives the containment-signing seed from the index seed.
// Unlike SeedFor it is deliberately not per-shard: every shard's
// containment side signs with the same hash functions and the same
// global cardinality-band boundaries, so "y is a candidate for q" is a
// property of (q, y, seed) alone — independent of which shard holds y —
// and containment results are byte-identical for any partitioning.
func ContainSeed(seed uint64) uint64 {
	return tabhash.DeriveSeed(seed, 0xC047, 0)
}

// containOptions are the options every shard's containment side builds
// with; defaults (T, TargetProb, KMV size) are filled by the contain
// package.
func (x *Index) containOptions() contain.Options {
	return contain.Options{Seed: ContainSeed(x.opt.Seed)}
}

// ContiguousRanges returns the [lo, hi) ranges of the contiguous
// partition of n sets into k shards: the first n%k ranges are one longer,
// matching Build's assignment exactly.
func ContiguousRanges(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	lo := 0
	for s := 0; s < k; s++ {
		size := n / k
		if s < n%k {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// shardBackend is one ring shard as the query merge sees it: an
// independent failure and build domain that answers shard-local queries
// with global ids. The in-process localShard (hot or cold) and the HTTP
// remoteShard both satisfy it, so fan-out, tombstone filtering and the
// global-id discipline are written once and hold for any mix of local and
// remote shards. Backends never apply tombstones — deletes are coordinator
// state, filtered at merge time like always.
//
// A hot local shard cannot fail; a cold one fails only on a corrupt
// container and a remote one on a dead topology. The legacy (error-free)
// query entry points are valid exactly on rings that cannot fail.
type shardBackend interface {
	// queryBest returns the shard's best match — highest similarity,
	// then lowest id within the shard's traversal order — as a global id,
	// with the shard's candidate-pipeline stats (zero for remote shards,
	// whose counts stay on their peers).
	queryBest(q []uint32) (id int, sim float64, ok bool, st cpindex.QueryStats, err error)
	// queryAll returns every match in the shard with global ids,
	// unfiltered and in shard-traversal order (the merge sorts).
	queryAll(q []uint32) ([]cpindex.Match, cpindex.QueryStats, error)
	// queryBatch answers qs against the shard; results[i] corresponds to
	// qs[i]. Remote backends answer the whole batch in one round trip.
	queryBatch(qs [][]uint32) ([][]cpindex.Match, error)
	// queryContain returns the shard's exact-verified containment matches
	// (C(q, y) >= t) with global ids, in shard-traversal order. opts are
	// the index-wide containment options, threaded through so a shard
	// whose containment side is not built yet can build it with the right
	// global seed.
	queryContain(q []uint32, t float64, opts contain.Options) ([]cpindex.Match, error)
	// size is the number of physically present sets (tombstoned included).
	size() int
	// globalIDs is the shard's local→global id map, kept coordinator-side
	// even for remote shards (tombstone accounting and persistence).
	globalIDs() []int
	// traceName names ring entry i in query traces.
	traceName(i int) (name, kind string)
}

// Index is a sharded Chosen Path search structure. It is safe for
// concurrent use: queries proceed under a shared lock and Add under an
// exclusive one, and sealed shards are immutable.
type Index struct {
	lambda float64
	opt    Options

	// saveMu serializes Save calls (generation numbering and pruning in
	// the target directory); it is never held together with mu writes,
	// so saving stalls neither queries nor appends.
	saveMu sync.Mutex

	// compactMu serializes compactions: one merged-shard rebuild at a time
	// per index. It is held across the off-lock build, never together with
	// a held mu, so compacting stalls neither queries nor appends.
	compactMu sync.Mutex
	// autoCompacting gates the seal-triggered background compaction
	// goroutine (at most one in flight); compactPending coalesces
	// triggers that arrive while a pass is running into one follow-up
	// pass. See compactAsync.
	autoCompacting atomic.Bool
	compactPending atomic.Bool

	mu     sync.RWMutex
	shards []shardBackend
	// side buffers appended sets (with their global ids) until sealing;
	// queries scan it exactly, so fresh appends have recall 1.0.
	side *sideBuffer
	// sealing holds buffers whose shard build is in flight. They are
	// still scanned exactly by queries — the build happens outside the
	// lock so a seal never stalls serving — and each is removed when its
	// built shard joins the ring.
	sealing []*sideBuffer
	// nextSlot numbers shard seeds: primary shards take [0, Shards) and
	// every seal claims the next slot at seal start, so seeds are stable
	// for a given Build+Add sequence even with concurrent seals.
	nextSlot int
	// total is the id high-water mark: ids are assigned from it and never
	// reused, even after deletes. live counts non-deleted sets.
	total   int
	live    int
	appends int
	merges  int
	deletes int
	// tombs is the shared tombstone set: global ids deleted but still
	// physically present in a sealed shard or a buffer. It is copy-on-
	// write — Delete publishes a new map, never mutates the old — so
	// query snapshots read it without locks. Sealing compacts away the
	// tombstones whose sets lived in the sealed buffer; tombstones in
	// sealed shards persist until Compact rewrites the shard. nil means
	// no tombstones.
	tombs map[int]struct{}
	// dropped records ids whose physical entries have been reclaimed — by
	// a seal that compacted a deleted buffered entry, or by Compact
	// dropping a tombstoned set from a rewritten shard. Their tombstones
	// are retired, so Delete must consult this set to stay idempotent: a
	// reclaimed id is gone, not live, and re-deleting it must not touch
	// the live count. A dense bitmap over [0, total): the cost is bounded
	// by ids ever assigned, not by lifetime churn. Mutated only under the
	// write lock (queries never read it: dropped ids appear in no shard
	// or buffer); nil until the first reclamation.
	dropped *intset.Bitmap
	// generation counts ring changes (seals and compaction swaps). A
	// bumped generation tells observers the shard set they snapshotted has
	// been superseded; in-flight queries finish against their snapshot.
	generation int
	// version counts every mutation that can change any query's answer:
	// appends, deletes, seals, compaction swaps and distributions. It is
	// the result cache's invalidation key — a cached answer is keyed on
	// the version it was computed at, so a bump orphans every stale entry
	// without scanning anything. Kept separate from generation, which
	// deliberately tracks ring changes only (Add and Delete mutate
	// results without resealing a shard).
	version atomic.Uint64
	// cache is the optional hot-query result cache (nil when disabled).
	// An atomic pointer so EnableCache can install it on a serving index.
	cache atomic.Pointer[resultCache]
	// compactions / compactedShards count completed Compact passes and the
	// shards they removed or rewrote.
	compactions     int
	compactedShards int
	// runtime mirrors the operational knobs currently applied (cache,
	// auto-compaction, tiering), whether they arrived through Configure or a
	// legacy setter. Save persists it so Load can re-apply the configured
	// state. Guarded by mu.
	runtime RuntimeOptions

	// metrics is the index's instrumentation hub (latency histograms,
	// candidate counters, per-peer health — see indexMetrics). Set once by
	// Build and Load before the index is published, then immutable, so it
	// is read without the lock.
	metrics *indexMetrics

	// placement is the durable record of shards shipped to peers plus the
	// last Distribute parameters (own mutex; see placement.go), and
	// controller holds the background placement loop when one is running.
	placement  placementState
	controller atomic.Pointer[placementController]
}

type sideBuffer struct {
	sets [][]uint32
	ids  []int
}

// Build constructs a sharded index over the collection for similarity
// threshold lambda. The collection is referenced, not copied. Each
// shard's cpindex is built as an independent task on the execution layer;
// the built structure is identical for any worker count.
func Build(sets [][]uint32, lambda float64, o *Options) *Index {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("shard: lambda %v out of (0,1)", lambda))
	}
	opt := o.withDefaults()
	if opt.Shards > len(sets) {
		opt.Shards = max(len(sets), 1)
	}
	x := &Index{
		lambda:   lambda,
		opt:      opt,
		side:     &sideBuffer{},
		nextSlot: opt.Shards,
		total:    len(sets),
		live:     len(sets),
	}

	// Assign global ids to shards.
	members := make([][]int, opt.Shards)
	switch opt.Partition {
	case PartitionHash:
		for id := range sets {
			s := int(tabhash.Mix64(opt.Seed^uint64(id)) % uint64(opt.Shards))
			members[s] = append(members[s], id)
		}
	default:
		for s, r := range ContiguousRanges(len(sets), opt.Shards) {
			ids := make([]int, 0, r[1]-r[0])
			for id := r[0]; id < r[1]; id++ {
				ids = append(ids, id)
			}
			members[s] = ids
		}
	}

	x.shards = make([]shardBackend, opt.Shards)
	workers := exec.EffectiveWorkers(opt.Workers)
	// Each shard build is one root task; leftover parallelism (more
	// workers than shards) goes to the inner tree builds, which are
	// deterministic for any inner worker count.
	inner := 0
	if workers > opt.Shards {
		inner = (workers + opt.Shards - 1) / opt.Shards
	}
	tasks := make([]exec.Task, opt.Shards)
	for s := range tasks {
		s := s
		tasks[s] = func(c *exec.Ctx) {
			x.shards[s] = buildShard(sets, members[s], lambda, opt, SeedFor(opt.Seed, s), inner)
		}
	}
	if workers <= 1 {
		for _, t := range tasks {
			t(nil)
		}
	} else {
		exec.Run(workers, tasks...)
	}
	if opt.CacheSize > 0 {
		x.cache.Store(newResultCache(opt.CacheSize))
	}
	x.runtime = RuntimeOptions{
		AutoCompact: opt.AutoCompact,
		CacheSize:   max(opt.CacheSize, 0),
	}
	x.metrics = newIndexMetrics(x)
	for _, sh := range x.shards {
		x.attachCounters(sh.(*localShard))
	}
	return x
}

// RuntimeOptions are the operational knobs adjustable on a built or
// loaded index without rebuilding anything — as opposed to the
// build-time parameters in Options. Configure applies the whole set
// atomically; Save persists it and Load re-applies it, so a restarted
// service keeps its configured state.
type RuntimeOptions struct {
	// AutoCompact runs Compact in the background after every seal.
	AutoCompact bool
	// CacheSize installs the hot-query result cache with room for that
	// many entries; 0 removes it. Negative values are rejected.
	CacheSize int
	// Tiering selects the ring's storage tier: TierHot (or "", the
	// default) keeps every shard's sets on the heap, TierCold leaves them
	// in memory-mapped containers, TierAuto lets the retier policy move shards
	// on query frequency. Answers are byte-identical across tiers.
	Tiering Tier
}

// Configure applies the runtime options and remembers them as the
// index's configured state. It subsumes the legacy SetAutoCompact /
// EnableCache setters: one validated call, and the applied state is
// persisted by Save and re-applied by Load.
func (x *Index) Configure(ro RuntimeOptions) error {
	if ro.CacheSize < 0 {
		return fmt.Errorf("shard: cache size %d must be >= 0", ro.CacheSize)
	}
	tier, err := ParseTier(string(ro.Tiering))
	if err != nil {
		return err
	}
	x.SetAutoCompact(ro.AutoCompact)
	x.EnableCache(ro.CacheSize)
	// Remember the tier exactly as configured ("" stays "", so a runtime
	// state that never mentioned tiering round-trips unchanged), then move
	// the ring to it. Idempotent when the ring is already there.
	x.setTiering(ro.Tiering)
	return x.applyTiering(tier)
}

// Runtime returns the runtime options currently applied.
func (x *Index) Runtime() RuntimeOptions {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.runtime
}

// EnableCache installs a result cache with room for maxEntries entries
// (or removes it when maxEntries <= 0). Safe on a serving index: queries
// pick the cache up atomically, and entries are version-keyed, so there
// is no warm-up hazard. Prefer Configure, which applies every runtime
// knob in one validated call.
func (x *Index) EnableCache(maxEntries int) {
	x.mu.Lock()
	x.runtime.CacheSize = max(maxEntries, 0)
	x.mu.Unlock()
	if maxEntries <= 0 {
		x.cache.Store(nil)
		return
	}
	x.cache.Store(newResultCache(maxEntries))
}

// buildShard builds the cpindex of one shard over the given global ids.
func buildShard(sets [][]uint32, ids []int, lambda float64, opt Options, seed uint64, workers int) *localShard {
	sub := make([][]uint32, len(ids))
	for i, id := range ids {
		sub[i] = sets[id]
	}
	return newLocalShard(cpindex.Build(sub, lambda, &cpindex.Options{
		Trees:    opt.Trees,
		LeafSize: opt.LeafSize,
		T:        opt.T,
		Seed:     seed,
		Workers:  workers,
	}), ids)
}

// Lambda returns the similarity threshold the index was built for.
func (x *Index) Lambda() float64 { return x.lambda }

// Len returns the number of live indexed sets (buffered appends included,
// deleted sets excluded).
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.live
}

// snapshot returns the current sealed shards, exactly-scanned buffers
// (in-flight seals plus the live side buffer) and the tombstone set under
// the read lock. Sealed shards, sealing buffers and the tombstone map are
// immutable (the latter by the copy-on-write discipline), and the side
// buffer's visible prefix is capped with a full slice expression, so the
// snapshot stays valid after the lock is released; entries appended after
// the snapshot are simply not seen — the usual read-committed serving
// semantics. Detached sealing buffers come back as the shared pointers
// (they are frozen) and the live buffer as a capped value, so a snapshot
// allocates nothing — part of the zero-allocation query contract.
func (x *Index) snapshot() ([]shardBackend, []*sideBuffer, sideBuffer, map[int]struct{}) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	sealing := x.sealing[:len(x.sealing):len(x.sealing)]
	side := sideBuffer{
		sets: x.side.sets[:len(x.side.sets):len(x.side.sets)],
		ids:  x.side.ids[:len(x.side.ids):len(x.side.ids)],
	}
	return x.shards, sealing, side, x.tombs
}

// Query returns the best match across all shards: the global id of an
// indexed set with J(q, result) >= λ and its exact similarity, or
// ok = false if no shard finds one. Ties on similarity break toward the
// lower id, so the answer is independent of shard iteration details.
// Tombstoned ids are never returned: if a shard's chosen match turns out
// to be deleted, that shard is rescanned for its best live match, so a
// delete hides exactly one set instead of masking its neighbors.
//
// Query panics if a remote-backed shard has no live replica and no local
// copy — an all-local ring can never fail, and serving paths over a
// distributed ring must use QueryErr, which reports the dead topology as
// an error instead of a silent partial merge.
//
// Deprecated: the error-returning path is the primary API. Query remains
// only as a convenience for all-local rings, where the error is
// structurally impossible; use QueryErr everywhere else.
func (x *Index) Query(q []uint32) (id int, sim float64, ok bool) {
	id, sim, ok, err := x.QueryErr(q)
	if err != nil {
		panic(fmt.Sprintf("shard: %v (use QueryErr on a distributed ring)", err))
	}
	return id, sim, ok
}

// QueryErr is Query with the remote-topology failure mode surfaced: when
// a remote-backed shard cannot be reached on any replica (and keeps no
// local copy), it returns the error rather than merging a partial answer.
// Remote shards are asked concurrently, so a single query's latency is
// bounded by the slowest peer round trip, not their sum.
func (x *Index) QueryErr(q []uint32) (id int, sim float64, ok bool, err error) {
	return x.queryBestTimed(q, nil)
}

// QueryTraced is QueryErr with the per-shard breakdown filled into tr —
// the serving layer's debug and slow-query path. Passing nil tr is
// exactly QueryErr.
func (x *Index) QueryTraced(q []uint32, tr *QueryTrace) (id int, sim float64, ok bool, err error) {
	return x.queryBestTimed(q, tr)
}

// queryBestTimed wraps the cached best-match path with the latency
// histogram; the inline time.Now/Observe pair keeps the hot path free of
// closures and allocations.
func (x *Index) queryBestTimed(q []uint32, tr *QueryTrace) (int, float64, bool, error) {
	start := time.Now()
	id, sim, ok, err := x.queryBestCached(q, tr)
	if m := x.metrics; m != nil {
		m.queryBest.Observe(time.Since(start))
		if err != nil {
			m.queryErrors.Inc()
		}
	}
	if tr != nil {
		tr.TotalNs = time.Since(start).Nanoseconds()
	}
	return id, sim, ok, err
}

func (x *Index) queryBestCached(q []uint32, tr *QueryTrace) (int, float64, bool, error) {
	if len(q) == 0 {
		return -1, 0, false, nil
	}
	if c := x.cache.Load(); c != nil {
		// The version is read before the state snapshot, so the answer
		// computed below reflects a state at least as new as the key
		// claims; a concurrent mutation bumps the version and orphans the
		// entry rather than letting it serve stale.
		v := x.version.Load()
		if id, sim, ok, hit := c.getBest(v, q); hit {
			if tr != nil {
				tr.CacheHit = true
			}
			return id, sim, ok, nil
		}
		id, sim, ok, err := x.queryBest(q, tr)
		if err == nil {
			c.putBest(v, q, id, sim, ok)
		}
		return id, sim, ok, err
	}
	return x.queryBest(q, tr)
}

// bestAnswer carries one shard's prefetched queryBest result.
type bestAnswer struct {
	id    int
	sim   float64
	found bool
	err   error
	ns    int64 // RPC wall time, for traces
}

// queryBest is the uncached QueryErr body. On an all-local ring it
// allocates nothing: the snapshot, the merge and the buffer scans all run
// on pooled or borrowed storage. A non-nil tr records per-shard timing
// and the candidate counts every backend call returns anyway (and
// allocates the trace entries); the calls, the merge and its answer are
// identical either way.
func (x *Index) queryBest(q []uint32, tr *QueryTrace) (int, float64, bool, error) {
	shards, sealing, side, tombs := x.snapshot()
	// Prefetch every remote shard's best match in parallel; locals are
	// answered inline in the merge loop below (no I/O to overlap). The
	// merge itself stays in ring order, and the (sim desc, id asc) total
	// order makes the answer independent of evaluation order anyway.
	var remoteIdx []int
	for i, sh := range shards {
		if _, remote := sh.(*remoteShard); remote {
			remoteIdx = append(remoteIdx, i)
		}
	}
	var prefetched []bestAnswer
	if len(remoteIdx) > 0 {
		prefetched = make([]bestAnswer, len(shards))
		exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(remoteIdx), func(j int) {
			i := remoteIdx[j]
			a := &prefetched[i]
			start := time.Now()
			a.id, a.sim, a.found, _, a.err = shards[i].queryBest(q)
			a.ns = time.Since(start).Nanoseconds()
		})
	}
	best, bestSim := -1, 0.0
	for i, sh := range shards {
		g := -1
		var s float64
		var found bool
		var err error
		var st cpindex.QueryStats
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if prefetched != nil && contains(remoteIdx, i) {
			a := &prefetched[i]
			g, s, found, err = a.id, a.sim, a.found, a.err
		} else {
			g, s, found, st, err = sh.queryBest(q)
		}
		if err != nil {
			return -1, 0, false, err
		}
		matched := 0
		if found {
			matched = 1
		}
		if found {
			if _, dead := tombs[g]; dead {
				// Rare path — the shard's chosen match was deleted — so the
				// full rescan stays a plain serial call.
				ms, _, err := sh.queryAll(q)
				if err != nil {
					return -1, 0, false, err
				}
				for _, m := range ms {
					if _, dead := tombs[m.ID]; dead {
						continue
					}
					if m.Sim > bestSim || (m.Sim == bestSim && (best < 0 || m.ID < best)) {
						best, bestSim = m.ID, m.Sim
					}
				}
				found = false
			}
		}
		if found && (s > bestSim || (s == bestSim && (best < 0 || g < best))) {
			best, bestSim = g, s
		}
		if tr != nil {
			name, kind := sh.traceName(i)
			e := ShardTrace{Shard: name, Kind: kind, Matches: matched,
				Candidates: st.Candidates, Verified: st.Verified}
			if prefetched != nil && contains(remoteIdx, i) {
				e.Ns = prefetched[i].ns
			} else {
				e.Ns = time.Since(t0).Nanoseconds()
			}
			tr.add(e)
		}
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	scanned := 0
	for _, b := range sealing {
		best, bestSim = scanBufferBest(*b, q, x.lambda, tombs, best, bestSim)
		scanned += len(b.sets)
	}
	best, bestSim = scanBufferBest(side, q, x.lambda, tombs, best, bestSim)
	scanned += len(side.sets)
	if tr != nil {
		tr.add(ShardTrace{Shard: "buffer", Kind: "buffer", Ns: time.Since(t0).Nanoseconds(),
			Candidates: uint64(scanned), Verified: uint64(scanned)})
	}
	return best, bestSim, best >= 0, nil
}

// scanBufferBest folds one exactly-scanned buffer into the running best
// match under the (sim desc, id asc) total order.
func scanBufferBest(b sideBuffer, q []uint32, lambda float64, tombs map[int]struct{}, best int, bestSim float64) (int, float64) {
	for i, set := range b.sets {
		id := b.ids[i]
		if _, dead := tombs[id]; dead {
			continue
		}
		if s, ok := intset.JaccardAtLeast(q, set, lambda); ok &&
			(s > bestSim || (s == bestSim && (best < 0 || id < best))) {
			best, bestSim = id, s
		}
	}
	return best, bestSim
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// QueryAll returns every match across all shards and the side buffer,
// sorted by global id — shards are disjoint, so the merge is a plain
// concatenation with no deduplication. Tombstoned ids are filtered here,
// at merge time. Like Query, it panics on a dead remote topology; use
// QueryAllErr on a distributed ring.
//
// Deprecated: the error-returning path is the primary API. QueryAll
// remains only as a convenience for all-local rings; use QueryAllErr
// everywhere else.
func (x *Index) QueryAll(q []uint32) []cpindex.Match {
	ms, err := x.QueryAllErr(q)
	if err != nil {
		panic(fmt.Sprintf("shard: %v (use QueryAllErr on a distributed ring)", err))
	}
	return ms
}

// QueryAllErr is QueryAll with the remote-topology failure mode surfaced
// as an error instead of a silent partial merge. Remote shards are asked
// concurrently, like QueryErr.
func (x *Index) QueryAllErr(q []uint32) ([]cpindex.Match, error) {
	return x.queryAllTimed(q, nil)
}

// QueryAllTraced is QueryAllErr with the per-shard breakdown filled into
// tr. Passing nil tr is exactly QueryAllErr.
func (x *Index) QueryAllTraced(q []uint32, tr *QueryTrace) ([]cpindex.Match, error) {
	return x.queryAllTimed(q, tr)
}

func (x *Index) queryAllTimed(q []uint32, tr *QueryTrace) ([]cpindex.Match, error) {
	start := time.Now()
	ms, err := x.queryAllCached(q, tr)
	if m := x.metrics; m != nil {
		m.queryAll.Observe(time.Since(start))
		if err != nil {
			m.queryErrors.Inc()
		}
	}
	if tr != nil {
		tr.TotalNs = time.Since(start).Nanoseconds()
	}
	return ms, err
}

func (x *Index) queryAllCached(q []uint32, tr *QueryTrace) ([]cpindex.Match, error) {
	if c := x.cache.Load(); c != nil {
		v := x.version.Load()
		if ms, hit := c.getAll(v, q); hit {
			if tr != nil {
				tr.CacheHit = true
			}
			return ms, nil
		}
		ms, err := x.queryAllUncached(q, tr)
		if err == nil {
			c.putAll(v, q, ms)
		}
		return ms, err
	}
	return x.queryAllUncached(q, tr)
}

func (x *Index) queryAllUncached(q []uint32, tr *QueryTrace) ([]cpindex.Match, error) {
	shards, sealing, side, tombs := x.snapshot()
	if tr != nil {
		return x.queryAllShardwise(shards, sealing, side, tombs, q, tr)
	}
	var locals []shardBackend
	var remotes []shardBackend
	for _, sh := range shards {
		if _, remote := sh.(*remoteShard); remote {
			remotes = append(remotes, sh)
		} else {
			locals = append(locals, sh)
		}
	}
	extra := make([][]cpindex.Match, len(remotes))
	if len(remotes) > 0 {
		errs := make([]error, len(remotes))
		exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(remotes), func(i int) {
			extra[i], _, errs[i] = remotes[i].queryAll(q)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return mergeQuery(locals, extra, sealing, side, tombs, x.lambda, q)
}

// queryAllShardwise is the traced queryAllUncached body: every shard's
// matches are pre-fetched (remotes in parallel, locals inline) with
// per-shard timing and stats, then handed to the same mergeQuery the
// untraced path uses, so the merged answer is identical.
func (x *Index) queryAllShardwise(shards []shardBackend, sealing []*sideBuffer, side sideBuffer, tombs map[int]struct{}, q []uint32, tr *QueryTrace) ([]cpindex.Match, error) {
	extra := make([][]cpindex.Match, len(shards))
	nss := make([]int64, len(shards))
	stats := make([]cpindex.QueryStats, len(shards))
	errs := make([]error, len(shards))
	fetch := func(i int) {
		start := time.Now()
		extra[i], stats[i], errs[i] = shards[i].queryAll(q)
		nss[i] = time.Since(start).Nanoseconds()
	}
	var remoteIdx []int
	for i, sh := range shards {
		if _, remote := sh.(*remoteShard); remote {
			remoteIdx = append(remoteIdx, i)
		}
	}
	exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(remoteIdx), func(j int) { fetch(remoteIdx[j]) })
	for i, sh := range shards {
		if _, remote := sh.(*remoteShard); !remote {
			fetch(i)
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	for i, sh := range shards {
		name, kind := sh.traceName(i)
		tr.add(ShardTrace{Shard: name, Kind: kind, Ns: nss[i], Matches: len(extra[i]),
			Candidates: stats[i].Candidates, Verified: stats[i].Verified})
	}
	t0 := time.Now()
	scanned := len(side.sets)
	for _, b := range sealing {
		scanned += len(b.sets)
	}
	out, err := mergeQuery(nil, extra, sealing, side, tombs, x.lambda, q)
	tr.add(ShardTrace{Shard: "buffer", Kind: "buffer", Ns: time.Since(t0).Nanoseconds(),
		Candidates: uint64(scanned), Verified: uint64(scanned)})
	return out, err
}

// mergeQuery is the shared per-query merge: matches from every shard in
// shards (fetched through the backend), plus pre-fetched per-shard match
// lists in extra (the batched remote path), plus the exactly-scanned
// buffers — tombstones filtered throughout, sorted by global id. Shards
// are disjoint and ids unique, so the sort yields one canonical answer
// regardless of which path a shard's matches arrived by.
func mergeQuery(shards []shardBackend, extra [][]cpindex.Match, sealing []*sideBuffer, side sideBuffer, tombs map[int]struct{}, lambda float64, q []uint32) ([]cpindex.Match, error) {
	var out []cpindex.Match
	keep := func(ms []cpindex.Match) {
		for _, m := range ms {
			if _, dead := tombs[m.ID]; dead {
				continue
			}
			out = append(out, m)
		}
	}
	for _, sh := range shards {
		ms, _, err := sh.queryAll(q)
		if err != nil {
			return nil, err
		}
		keep(ms)
	}
	for _, ms := range extra {
		keep(ms)
	}
	if len(q) > 0 {
		for _, b := range sealing {
			out = appendBufferMatches(out, *b, q, lambda, tombs)
		}
		out = appendBufferMatches(out, side, q, lambda, tombs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// appendBufferMatches exact-scans one buffer and appends its live matches.
func appendBufferMatches(out []cpindex.Match, b sideBuffer, q []uint32, lambda float64, tombs map[int]struct{}) []cpindex.Match {
	for i, set := range b.sets {
		if _, dead := tombs[b.ids[i]]; dead {
			continue
		}
		if sim, ok := intset.JaccardAtLeast(q, set, lambda); ok {
			out = append(out, cpindex.Match{ID: b.ids[i], Sim: sim})
		}
	}
	return out
}

// QueryBatch answers many queries at once: the queries become chunked
// tasks on the execution layer over one read-only snapshot of the shards,
// and the result slice is indexed like the input — results[i] is
// QueryAll(qs[i]) against that snapshot. Output is deterministic for any
// worker count (each query writes only its own slot). Like Query, it
// panics on a dead remote topology; use QueryBatchErr on a distributed
// ring.
//
// Deprecated: the error-returning path is the primary API. QueryBatch
// remains only as a convenience for all-local rings; use QueryBatchErr
// everywhere else.
func (x *Index) QueryBatch(qs [][]uint32) [][]cpindex.Match {
	out, err := x.QueryBatchErr(qs)
	if err != nil {
		panic(fmt.Sprintf("shard: %v (use QueryBatchErr on a distributed ring)", err))
	}
	return out
}

// QueryBatchErr is QueryBatch with the remote-topology failure mode
// surfaced. Remote-backed shards answer the whole batch in one RPC each —
// a batch costs O(remote shards) round trips, not O(queries × shards) —
// while local shards stay on the per-query path, which parallelizes
// across queries on the execution layer. Any shard left unanswerable (no
// live replica, no local copy) fails the whole batch with its error: a
// batch never silently merges partial topology.
func (x *Index) QueryBatchErr(qs [][]uint32) ([][]cpindex.Match, error) {
	start := time.Now()
	out, err := x.queryBatchCached(qs)
	if m := x.metrics; m != nil {
		m.queryBatch.Observe(time.Since(start))
		if err != nil {
			m.queryErrors.Inc()
		}
	}
	return out, err
}

func (x *Index) queryBatchCached(qs [][]uint32) ([][]cpindex.Match, error) {
	c := x.cache.Load()
	if c == nil {
		return x.queryBatchUncached(qs)
	}
	// Per-query cache consult: hits are filled from the cache, misses go
	// through the normal batch machinery together (remote shards still see
	// one RPC for the whole miss set) and are stored back under the
	// version read before the snapshot.
	v := x.version.Load()
	out := make([][]cpindex.Match, len(qs))
	var missIdx []int
	var missQs [][]uint32
	for i, q := range qs {
		if ms, hit := c.getAll(v, q); hit {
			out[i] = ms
		} else {
			missIdx = append(missIdx, i)
			missQs = append(missQs, q)
		}
	}
	if len(missQs) > 0 {
		res, err := x.queryBatchUncached(missQs)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			out[i] = res[j]
			c.putAll(v, qs[i], res[j])
		}
	}
	return out, nil
}

func (x *Index) queryBatchUncached(qs [][]uint32) ([][]cpindex.Match, error) {
	shards, sealing, side, tombs := x.snapshot()
	workers := exec.EffectiveWorkers(x.opt.Workers)
	var locals, remotes []shardBackend
	for _, sh := range shards {
		if _, ok := sh.(*remoteShard); ok {
			remotes = append(remotes, sh)
		} else {
			locals = append(locals, sh)
		}
	}
	remoteRes := make([][][]cpindex.Match, len(remotes))
	if len(remotes) > 0 {
		errs := make([]error, len(remotes))
		exec.RunItems(workers, len(remotes), func(s int) {
			remoteRes[s], errs[s] = remotes[s].queryBatch(qs)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	out := make([][]cpindex.Match, len(qs))
	errs := make([]error, len(qs))
	exec.RunItems(workers, len(qs), func(i int) {
		extra := make([][]cpindex.Match, len(remotes))
		for s := range remotes {
			extra[s] = remoteRes[s][i]
		}
		// Remote errors were collected above; what can still fail here is a
		// cold local shard with a corrupt container.
		out[i], errs[i] = mergeQuery(locals, extra, sealing, side, tombs, x.lambda, qs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// QueryContain returns every indexed set whose containment of the query
// C(q, y) = |q ∩ y| / |q| reaches t, with the exact containment score,
// sorted by global id — the domain-discovery workload: "which indexed
// domains cover (almost) all of my query column". Candidates come from
// each shard's LSH Ensemble structure (recall ≈ the contain package's
// TargetProb per true match) and every candidate is exact-verified, so
// precision is 1.0 and, because candidate generation hashes with one
// global seed and global cardinality bands, results are byte-identical
// across shard counts, partition schemes, worker counts and distributed
// topologies. Buffered appends are scanned exactly. The threshold must
// lie in (0, 1]; an unreachable remote shard surfaces as an error like
// the QueryErr family.
func (x *Index) QueryContain(q []uint32, t float64) ([]cpindex.Match, error) {
	start := time.Now()
	ms, err := x.queryContainCached(q, t)
	if m := x.metrics; m != nil {
		m.queryContain.Observe(time.Since(start))
		if err != nil {
			m.queryErrors.Inc()
		}
	}
	return ms, err
}

func (x *Index) queryContainCached(q []uint32, t float64) ([]cpindex.Match, error) {
	if t <= 0 || t > 1 {
		return nil, fmt.Errorf("shard: containment threshold %v out of (0,1]", t)
	}
	if len(q) == 0 {
		return nil, nil
	}
	if c := x.cache.Load(); c != nil {
		v := x.version.Load()
		if ms, hit := c.getContain(v, q, t); hit {
			return ms, nil
		}
		ms, err := x.queryContainUncached(q, t)
		if err == nil {
			c.putContain(v, q, t, ms)
		}
		return ms, err
	}
	return x.queryContainUncached(q, t)
}

func (x *Index) queryContainUncached(q []uint32, t float64) ([]cpindex.Match, error) {
	shards, sealing, side, tombs := x.snapshot()
	opts := x.containOptions()
	var locals, remotes []shardBackend
	for _, sh := range shards {
		if _, ok := sh.(*remoteShard); ok {
			remotes = append(remotes, sh)
		} else {
			locals = append(locals, sh)
		}
	}
	extra := make([][]cpindex.Match, len(remotes))
	if len(remotes) > 0 {
		errs := make([]error, len(remotes))
		exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(remotes), func(i int) {
			extra[i], errs[i] = remotes[i].queryContain(q, t, opts)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var out []cpindex.Match
	keep := func(ms []cpindex.Match) {
		for _, m := range ms {
			if _, dead := tombs[m.ID]; dead {
				continue
			}
			out = append(out, m)
		}
	}
	for _, sh := range locals {
		ms, err := sh.queryContain(q, t, opts)
		if err != nil {
			return nil, err
		}
		keep(ms)
	}
	for _, ms := range extra {
		keep(ms)
	}
	for _, b := range sealing {
		out = appendBufferContain(out, *b, q, t, tombs)
	}
	out = appendBufferContain(out, side, q, t, tombs)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// appendBufferContain exact-scans one buffer for containment matches —
// buffered appends need no candidate structure, so they keep recall 1.0.
func appendBufferContain(out []cpindex.Match, b sideBuffer, q []uint32, t float64, tombs map[int]struct{}) []cpindex.Match {
	for i, set := range b.sets {
		if _, dead := tombs[b.ids[i]]; dead {
			continue
		}
		if sim, ok := intset.ContainmentAtLeast(q, set, t); ok {
			out = append(out, cpindex.Match{ID: b.ids[i], Sim: sim})
		}
	}
	return out
}

// Add appends sets to the index and returns their global ids. The sets
// are buffered in the side shard (scanned exactly by queries, so they are
// findable immediately with recall 1.0); once the buffer crosses
// MergeThreshold it is sealed: built into a cpindex with seed
// SeedFor(Seed, slot) for the next free shard slot and appended to the
// ring. The build runs outside the lock — concurrent queries keep
// scanning the detached buffer exactly until the shard is swapped in —
// but the Add call itself returns only after its seal completes. Sets
// must be normalized (sorted, unique), like Build's input.
func (x *Index) Add(sets [][]uint32) []int {
	start := time.Now()
	// Reject empty sets up front, before any state changes: they cannot
	// be MinHash-signed, so admitting one would make the eventual seal's
	// cpindex.Build panic long after the bad Add — stranding the buffer.
	for _, s := range sets {
		if len(s) == 0 {
			panic("shard: cannot add an empty set")
		}
	}
	x.mu.Lock()
	ids := make([]int, len(sets))
	for i, s := range sets {
		ids[i] = x.total
		x.total++
		x.side.sets = append(x.side.sets, s)
		x.side.ids = append(x.side.ids, ids[i])
	}
	x.live += len(sets)
	x.appends += len(sets)
	x.version.Add(1)
	var pending *sideBuffer
	slot := 0
	if len(x.side.sets) >= x.opt.MergeThreshold {
		pending, slot = x.beginSealLocked()
	}
	auto := x.opt.AutoCompact
	x.mu.Unlock()
	if pending != nil {
		x.finishSeal(pending, slot)
		if auto {
			x.compactAsync()
		}
		x.placementKick()
	}
	if m := x.metrics; m != nil {
		m.addLat.Observe(time.Since(start))
	}
	return ids
}

// beginSealLocked detaches the side buffer for sealing and claims the
// next shard seed slot. Caller holds the write lock. The detached buffer
// joins x.sealing, so queries keep scanning it exactly while the shard
// build runs outside the lock.
//
// Sealing is also where tombstones are compacted: entries deleted while
// buffered are dropped before the shard is built, and their tombstones
// retire with them — a delete that never reaches a sealed shard costs
// nothing forever after. (Deletes that land after this point still serve
// correctly: the built shard contains the set, but query merges filter
// it through the tombstone set.) If compaction empties the buffer, no
// slot is claimed and no shard is built.
func (x *Index) beginSealLocked() (*sideBuffer, int) {
	b := x.side
	x.side = &sideBuffer{}
	if len(x.tombs) > 0 {
		// Copy-on-write on both sides: in-flight queries may still hold
		// the old buffer slices and the old tombstone map, so filter into
		// fresh slices and publish a fresh map.
		remaining := make(map[int]struct{}, len(x.tombs))
		for id := range x.tombs {
			remaining[id] = struct{}{}
		}
		kept := &sideBuffer{}
		var reclaimed []int
		for i, id := range b.ids {
			if _, dead := remaining[id]; dead {
				delete(remaining, id)
				reclaimed = append(reclaimed, id)
				continue
			}
			kept.sets = append(kept.sets, b.sets[i])
			kept.ids = append(kept.ids, id)
		}
		if len(reclaimed) > 0 {
			b = kept
			if len(remaining) == 0 {
				x.tombs = nil
			} else {
				x.tombs = remaining
			}
			x.markDroppedLocked(reclaimed)
		}
	}
	if len(b.sets) == 0 {
		return nil, 0
	}
	x.sealing = append(x.sealing, b)
	slot := x.nextSlot
	x.nextSlot++
	return b, slot
}

// finishSeal builds the detached buffer into a full shard — outside the
// lock, so serving never stalls on a seal — then swaps it into the ring.
func (x *Index) finishSeal(b *sideBuffer, slot int) {
	ix := cpindex.Build(b.sets, x.lambda, &cpindex.Options{
		Trees:    x.opt.Trees,
		LeafSize: x.opt.LeafSize,
		T:        x.opt.T,
		Seed:     SeedFor(x.opt.Seed, slot),
		Workers:  x.opt.Workers,
	})
	sealed := newLocalShard(ix, b.ids)
	x.attachCounters(sealed)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.shards = append(x.shards, sealed)
	for i, s := range x.sealing {
		if s == b {
			x.sealing = append(x.sealing[:i:i], x.sealing[i+1:]...)
			break
		}
	}
	x.merges++
	x.generation++
	x.version.Add(1)
}

// markDroppedLocked records ids whose physical entries have just been
// reclaimed, so later deletes of the same ids stay no-ops. Caller holds
// the write lock.
func (x *Index) markDroppedLocked(ids []int) {
	if x.dropped == nil {
		x.dropped = &intset.Bitmap{}
	}
	for _, id := range ids {
		x.dropped.Set(id)
	}
}

// Delete removes the set with the given global id from query results. It
// reports whether the id was live (false for out-of-range or already
// deleted ids). The set is tombstoned, not unbuilt: sealed shards are
// immutable, so query merges filter the id out, and the physical entry
// is reclaimed when its side buffer seals (buffered entries) or when
// Compact rewrites its shard (sealed entries).
func (x *Index) Delete(id int) bool {
	return x.DeleteBatch([]int{id}) == 1
}

// DeleteBatch deletes many ids at once with a single copy of the
// tombstone set, returning how many were live. Unknown and already
// deleted ids are skipped — including ids whose physical entries were
// already reclaimed by a seal or a compaction, which would otherwise be
// re-tombstoned and corrupt the live count.
func (x *Index) DeleteBatch(ids []int) int {
	start := time.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	defer func() {
		if m := x.metrics; m != nil {
			m.deleteLat.Observe(time.Since(start))
		}
	}()
	var next map[int]struct{}
	deleted := 0
	for _, id := range ids {
		if id < 0 || id >= x.total {
			continue
		}
		if x.dropped.Get(id) {
			continue
		}
		if _, dead := x.tombs[id]; dead {
			continue
		}
		if next == nil {
			next = make(map[int]struct{}, len(x.tombs)+len(ids))
			for t := range x.tombs {
				next[t] = struct{}{}
			}
		}
		if _, dead := next[id]; dead {
			continue
		}
		next[id] = struct{}{}
		deleted++
	}
	if deleted > 0 {
		x.tombs = next
		x.deletes += deleted
		x.live -= deleted
		x.version.Add(1)
	}
	return deleted
}

// Flush seals the side buffer into the ring immediately, regardless of
// MergeThreshold. A no-op when the buffer is empty.
func (x *Index) Flush() {
	x.mu.Lock()
	var pending *sideBuffer
	slot := 0
	if len(x.side.sets) > 0 {
		pending, slot = x.beginSealLocked()
	}
	auto := x.opt.AutoCompact
	x.mu.Unlock()
	if pending != nil {
		x.finishSeal(pending, slot)
		if auto {
			x.compactAsync()
		}
		x.placementKick()
	}
}

// SetAutoCompact enables or disables seal-triggered background compaction
// on a built or loaded index. Prefer Configure, which applies every
// runtime knob in one validated call.
func (x *Index) SetAutoCompact(on bool) {
	x.mu.Lock()
	x.opt.AutoCompact = on
	x.runtime.AutoCompact = on
	x.mu.Unlock()
}

// Stats describes the current shape of a sharded index.
type Stats struct {
	Lambda float64 `json:"lambda"`
	// Sets counts live sets (deleted sets excluded, buffered included).
	Sets       int   `json:"sets"`
	Shards     int   `json:"shards"`
	ShardSizes []int `json:"shard_sizes"`
	Buffered   int   `json:"buffered"`
	Appends    int   `json:"appends"`
	Merges     int   `json:"merges"`
	// Deletes counts lifetime Delete calls that hit a live id;
	// Tombstones counts the deleted ids still physically present (and
	// thus filtered at query time) — seals compact buffered ones away,
	// Compact reclaims the rest.
	Deletes    int `json:"deletes"`
	Tombstones int `json:"tombstones"`
	// Compactions counts completed Compact passes, CompactedShards the
	// ring shards they removed or rewrote, and Reclaimed the deleted ids
	// whose physical entries have been dropped (by seals and compactions)
	// and whose tombstones are retired for good.
	Compactions     int `json:"compactions"`
	CompactedShards int `json:"compacted_shards"`
	Reclaimed       int `json:"reclaimed"`
	// Generation counts ring changes: seals, compaction swaps and remote
	// placements.
	Generation int `json:"generation"`
	// RemoteShards counts ring shards currently backed by peers (placed or
	// replicated via Distribute). Nodes and Leaves cover local structures
	// only — a remote shard's tree lives on its peer.
	RemoteShards int `json:"remote_shards"`
	// HotShards and ColdShards split the local ring by storage tier: sets
	// on the heap versus left in memory-mapped containers.
	HotShards  int `json:"hot_shards"`
	ColdShards int `json:"cold_shards"`
	// PlacementEpoch counts placement passes (Distribute calls, manual or
	// controller-driven); PlacementKeys is the number of distinct shard
	// keys this coordinator currently believes peers host for it — after a
	// clean GC sweep it equals the ring's remote key count.
	PlacementEpoch int    `json:"placement_epoch"`
	PlacementKeys  int    `json:"placement_keys"`
	Nodes          int    `json:"nodes"`
	Leaves         int    `json:"leaves"`
	Partition      string `json:"partition"`
	Workers        int    `json:"workers"`
	// CacheEnabled reports whether the hot-query result cache is on;
	// when it is, CacheEntries is its current size and CacheHits /
	// CacheMisses its lifetime counters (misses include entries orphaned
	// by a version bump).
	CacheEnabled bool   `json:"cache_enabled"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
}

// Stats returns a point-in-time snapshot of the index shape.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	buffered := len(x.side.sets)
	for _, b := range x.sealing {
		buffered += len(b.sets)
	}
	st := Stats{
		Lambda:          x.lambda,
		Sets:            x.live,
		Shards:          len(x.shards),
		Buffered:        buffered,
		Appends:         x.appends,
		Merges:          x.merges,
		Deletes:         x.deletes,
		Tombstones:      len(x.tombs),
		Compactions:     x.compactions,
		CompactedShards: x.compactedShards,
		Reclaimed:       x.dropped.Count(),
		Generation:      x.generation,
		Partition:       x.opt.Partition.String(),
		Workers:         x.opt.Workers,
	}
	st.PlacementEpoch, st.PlacementKeys = x.placement.stats()
	if c := x.cache.Load(); c != nil {
		st.CacheEnabled = true
		st.CacheEntries, st.CacheHits, st.CacheMisses = c.stats()
	}
	for _, sh := range x.shards {
		st.ShardSizes = append(st.ShardSizes, sh.size())
		local, ok := sh.(*localShard)
		if !ok {
			st.RemoteShards++
			continue
		}
		if local.isCold() {
			st.ColdShards++
		} else {
			st.HotShards++
		}
		nodes, leaves := local.structure()
		st.Nodes += nodes
		st.Leaves += leaves
	}
	return st
}
