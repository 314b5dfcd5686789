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
//   - Batch throughput: QueryBatchErr turns a query slice into tasks over the
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contain"
	"repro/internal/cpindex"
	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/tabhash"
)

// Options configures a sharded index. The cpindex knobs (Trees, LeafSize,
// T) apply to every shard.
type Options struct {
	// Shards is the number of primary shards (default 4; values < 1 are
	// raised to 1; values above the set count are clamped down so no shard
	// starts empty).
	Shards int
	// HashPartition assigns each id to a shard by a seeded hash, spreading
	// clustered input (e.g. sorted-by-size collections) evenly across the
	// shards, instead of the default: Shards nearly equal contiguous id
	// ranges, cache-friendly and offset-addressable.
	HashPartition bool
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
	// Workers parallelizes Build, seal, and QueryBatchErr on the shared
	// execution layer: 0 runs sequentially, negative selects GOMAXPROCS.
	// Results are identical for any worker count.
	Workers int
}

// partitionName is the partition scheme's name in a manifest and in Stats.
func (o *Options) partitionName() string {
	if o.HashPartition {
		return "hash"
	}
	return "contiguous"
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

// ringSigner is a ring's containment hash functions, shared by every shard's
// containment side (0.5 MB of tables that each shard would otherwise draw
// for itself), so a query is signed once for the whole ring. The seed alone
// picks them: T is the contain package's default (64 rows, so a set costs
// 256 B of signature and 256 B of sorted orders) and the recall target is
// its constant, so two shards of a ring can differ in nothing that would
// make their candidates differ. The signer is drawn on first use, so a ring
// that serves no containment query never draws it, whether it is built,
// saved or loaded.
type ringSigner struct {
	// opts are the options the signer is drawn from: contain's default T
	// and the ring's ContainSeed.
	opts   contain.Options
	once   sync.Once
	signer *contain.Signer
}

func newRingSigner(seed uint64) *ringSigner {
	return &ringSigner{opts: contain.Options{T: contain.DefaultT, Seed: ContainSeed(seed)}}
}

// get returns the signer, drawing it on first use.
func (r *ringSigner) get() *contain.Signer {
	r.once.Do(func() { r.signer = contain.NewSigner(r.opts) })
	return r.signer
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

// Index is a sharded Chosen Path search structure. It is safe for
// concurrent use: queries proceed under a shared lock and Add under an
// exclusive one, and sealed shards are immutable.
type Index struct {
	lambda float64
	opt    Options
	// signer is the ring's containment hash functions, under which every
	// shard's containment side signs its sets. Set with opt.
	signer *ringSigner

	// saveMu serializes Save calls (generation numbering and pruning in
	// the target directory); it is never held together with mu writes,
	// so saving stalls neither queries nor appends.
	saveMu sync.Mutex

	// compactMu serializes compactions: one merged-shard rebuild at a time
	// per index. It is held across the off-lock build, never together with
	// a held mu, so compacting stalls neither queries nor appends.
	compactMu sync.Mutex
	// compacting gates the seal-triggered background compaction goroutine
	// (at most one in flight); compactPending coalesces triggers that
	// arrive while a pass is running into one follow-up pass. See
	// compactAsync.
	compacting     atomic.Bool
	compactPending atomic.Bool

	mu     sync.RWMutex
	shards []*localShard
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
	// deleted is every id ever deleted, whether a shard or a buffer still
	// holds its set (a tombstone, filtered when answers merge) or a seal or
	// a compaction has dropped it. A dropped id stays in it, so a repeat
	// Delete is a no-op. It is copy-on-write — DeleteBatch publishes a new
	// bitmap and never changes the old one — so query snapshots read it
	// without a lock, and seals and compactions only read it. nil until the
	// first delete.
	deleted *intset.Bitmap
	// reclaimed counts the deleted ids whose sets a seal or a compaction
	// has physically dropped; the other deleted.Count()-reclaimed are
	// tombstones.
	reclaimed int
	// generation counts ring changes (seals and compaction swaps). A
	// bumped generation tells observers the shard set they snapshotted has
	// been superseded; in-flight queries finish against their snapshot.
	generation int
	// version counts every mutation that can change any query's answer:
	// appends, deletes, seals and compaction swaps. It is the result
	// cache's invalidation key — a cached answer is keyed on the version it
	// was computed at, so a bump orphans every stale entry without scanning
	// anything. Kept separate from generation, which deliberately tracks
	// ring changes only (Add and Delete mutate results without resealing a
	// shard).
	version atomic.Uint64
	// cache is the optional hot-query result cache (nil when disabled).
	// An atomic pointer so Configure can install it on a serving index.
	cache atomic.Pointer[resultCache]
	// compactions / compactedShards count completed Compact passes and the
	// shards they removed or rewrote.
	compactions     int
	compactedShards int
	// runtime holds the operational knobs Configure last applied (cache,
	// auto-compaction); zero until then. Guarded by mu, which Configure
	// also holds while it installs the cache.
	runtime RuntimeOptions

	// metrics is the index's instrumentation hub (latency histograms,
	// candidate counters — see indexMetrics). Set once by Build and Load
	// before the index is published, then immutable, so it is read without
	// the lock.
	metrics *indexMetrics
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
		signer:   newRingSigner(opt.Seed),
		side:     &sideBuffer{},
		nextSlot: opt.Shards,
		total:    len(sets),
		live:     len(sets),
	}
	x.metrics = newIndexMetrics(x)

	// Assign global ids to shards.
	members := make([][]int, opt.Shards)
	if opt.HashPartition {
		for id := range sets {
			s := int(tabhash.Mix64(opt.Seed^uint64(id)) % uint64(opt.Shards))
			members[s] = append(members[s], id)
		}
	} else {
		for s, r := range ContiguousRanges(len(sets), opt.Shards) {
			ids := make([]int, 0, r[1]-r[0])
			for id := r[0]; id < r[1]; id++ {
				ids = append(ids, id)
			}
			members[s] = ids
		}
	}

	x.shards = make([]*localShard, opt.Shards)
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
			sub := make([][]uint32, len(members[s]))
			for i, id := range members[s] {
				sub[i] = sets[id]
			}
			x.shards[s] = x.buildShard(sub, members[s], s, inner)
		}
	}
	exec.Run(workers, tasks...)
	return x
}

// buildShard builds one ring shard: the cpindex of sets, whose global ids
// are ids, under the seed of the given slot, with workers inner tree
// builds, attached to the index's candidate counters. Build, seal and
// compaction all build their shards here, so they cannot drift apart.
func (x *Index) buildShard(sets [][]uint32, ids []int, slot, workers int) *localShard {
	sh := newLocalShard(cpindex.Build(sets, x.lambda, &cpindex.Options{
		Trees:    x.opt.Trees,
		LeafSize: x.opt.LeafSize,
		T:        x.opt.T,
		Seed:     SeedFor(x.opt.Seed, slot),
		Workers:  workers,
	}), ids)
	x.attachCounters(sh)
	return sh
}

// RuntimeOptions are the operational knobs adjustable on a built or
// loaded index without rebuilding anything — as opposed to the
// build-time parameters in Options. Configure is the one place they are
// set: Build and Load start every index with none, and Save does not
// store them, because they belong to the process serving the index, not to
// its data.
type RuntimeOptions struct {
	// AutoCompact runs Compact in a background goroutine after every seal,
	// so a long-running service reclaims small shards and tombstones
	// without operator intervention. Queries are never blocked either way.
	AutoCompact bool
	// CacheSize installs the hot-query result cache with room for that
	// many entries; 0 removes it. Negative values are rejected. Entries are
	// keyed on the index version, which every mutation bumps, so a cached
	// answer is always the answer the uncached path would give; see
	// resultCache.
	CacheSize int
}

// Configure applies the runtime options in one validated call. It fails
// only on invalid options, before changing anything. Safe on a serving
// index: queries pick a new cache up atomically — entries are
// version-keyed, so there is no warm-up hazard — and the options and the
// cache are replaced under one lock, so concurrent calls leave Runtime
// reporting the cache that is installed.
func (x *Index) Configure(ro RuntimeOptions) error {
	if ro.CacheSize < 0 {
		return fmt.Errorf("shard: cache size %d must be >= 0", ro.CacheSize)
	}
	var c *resultCache
	if ro.CacheSize > 0 {
		c = newResultCache(ro.CacheSize)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.runtime = ro
	x.cache.Store(c)
	return nil
}

// Runtime returns the runtime options currently applied.
func (x *Index) Runtime() RuntimeOptions {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.runtime
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
// (in-flight seals plus the live side buffer) and the deleted set under
// the read lock. Sealed shards, sealing buffers and the deleted set are
// immutable (the latter by the copy-on-write discipline), and the side
// buffer's visible prefix is capped with a full slice expression, so the
// snapshot stays valid after the lock is released; entries appended after
// the snapshot are simply not seen — the usual read-committed serving
// semantics. Detached sealing buffers come back as the shared pointers
// (they are frozen) and the live buffer as a capped value, so a snapshot
// allocates nothing — part of the zero-allocation query contract.
func (x *Index) snapshot() ([]*localShard, []*sideBuffer, sideBuffer, *intset.Bitmap) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	sealing := x.sealing[:len(x.sealing):len(x.sealing)]
	side := sideBuffer{
		sets: x.side.sets[:len(x.side.sets):len(x.side.sets)],
		ids:  x.side.ids[:len(x.side.ids):len(x.side.ids)],
	}
	return x.shards, sealing, side, x.deleted
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
	x.mu.Unlock()
	if pending != nil {
		x.finishSeal(pending, slot)
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
// Sealing also drops the entries deleted while buffered, before the shard
// is built, and counts them reclaimed — a delete that never reaches a
// sealed shard costs nothing forever after. (Deletes that land after this
// point still serve correctly: the built shard contains the set, but query
// merges filter it through the deleted set.) If that empties the buffer,
// no slot is claimed and no shard is built.
func (x *Index) beginSealLocked() (*sideBuffer, int) {
	old := x.side
	x.side = &sideBuffer{}
	// In-flight queries may still hold the old buffer's slices, so the live
	// entries go to fresh ones.
	b := &sideBuffer{sets: make([][]uint32, 0, len(old.ids)), ids: make([]int, 0, len(old.ids))}
	for i, id := range old.ids {
		if x.deleted.Get(id) {
			x.reclaimed++
			continue
		}
		b.sets = append(b.sets, old.sets[i])
		b.ids = append(b.ids, id)
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
// lock, so serving never stalls on a seal — then swaps it into the ring and,
// under AutoCompact, starts a background compaction.
func (x *Index) finishSeal(b *sideBuffer, slot int) {
	sealed := x.buildShard(b.sets, b.ids, slot, x.opt.Workers)
	x.mu.Lock()
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
	auto := x.runtime.AutoCompact
	x.mu.Unlock()
	if auto {
		x.compactAsync()
	}
}

// Delete removes the set with the given global id from query results. It
// reports whether the id was live (false for out-of-range or already
// deleted ids). The id joins the deleted set and its set stays built for
// now: sealed shards are immutable, so query merges filter the id out,
// and the physical entry is reclaimed when its side buffer seals (buffered
// entries) or when Compact rewrites its shard (sealed entries). Reclaiming
// leaves the id in the deleted set, so deleting it again stays a no-op.
func (x *Index) Delete(id int) bool {
	return x.DeleteBatch([]int{id}) == 1
}

// DeleteBatch deletes many ids at once with a single copy of the deleted
// set, returning how many were live. Out-of-range ids and ids already in
// the deleted set, whether still held or already reclaimed, are skipped.
func (x *Index) DeleteBatch(ids []int) int {
	start := time.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	defer func() {
		if m := x.metrics; m != nil {
			m.deleteLat.Observe(time.Since(start))
		}
	}()
	next := x.deleted
	n := 0
	for _, id := range ids {
		if id < 0 || id >= x.total || next.Get(id) {
			continue
		}
		if next == x.deleted {
			next = x.deleted.Clone()
		}
		next.Set(id)
		n++
	}
	if n > 0 {
		x.deleted = next
		x.deletes += n
		x.live -= n
		x.version.Add(1)
	}
	return n
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
	x.mu.Unlock()
	if pending != nil {
		x.finishSeal(pending, slot)
	}
}
