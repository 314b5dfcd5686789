package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/contain"
	"repro/internal/exec"
	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// Persistence: a sharded index saves as one directory — a JSON manifest
// (snapshot.Manifest: options, counters, side-shard contents, tombstones,
// shard file list) plus one binary container per sealed shard. Shards are
// independent immutable structures, so saves and loads fan out per shard
// on the execution layer and a restart costs I/O instead of a rebuild.
//
// The manifest is written last: a directory with a manifest always names
// only fully written shard files (each itself written temp-and-rename),
// so a crash mid-save leaves the previous complete snapshot readable.

// shardKind tags a per-shard container: cpindex sections plus the
// local-to-global id map.
const shardKind = "cpshard"

// shardFileName names shard i of save generation gen. Generations make
// overwriting saves atomic at the directory level: a new save never
// renames over a file the current manifest references, so a crash at
// any point leaves the previous manifest naming only intact files.
func shardFileName(gen, i int) string {
	return fmt.Sprintf("shard-g%06d-%04d.cps", gen, i)
}

// nextGeneration scans dir for existing shard files and returns one
// generation past the highest found — derived from the file names, not
// the manifest, so it works even when a previous save crashed or the
// manifest is unreadable.
func nextGeneration(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	maxGen := 0
	for _, e := range entries {
		var g, i int
		if n, _ := fmt.Sscanf(e.Name(), "shard-g%d-%d.cps", &g, &i); n == 2 && g > maxGen {
			maxGen = g
		}
	}
	return maxGen + 1, nil
}

// Save writes the index to dir (created if needed), overwriting any
// snapshot already there. It runs against one read-locked snapshot of
// the index: sealed shards, every exactly-scanned buffer (in-flight
// seals included — they reload as side-shard state), tombstones and
// counters, so a concurrent Add or Delete lands entirely before or
// entirely after the snapshot point. Shard files are written in parallel
// on the execution layer.
func (x *Index) Save(dir string) error {
	// One save at a time per index: concurrent saves into the same
	// directory would race on the generation number and prune each
	// other's files. Queries and Add are not blocked — they synchronize
	// on x.mu, which Save only holds for the in-memory snapshot below.
	x.saveMu.Lock()
	defer x.saveMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen, err := nextGeneration(dir)
	if err != nil {
		return err
	}

	x.mu.RLock()
	shards := x.shards
	side := snapshot.SideState{}
	for _, b := range x.sealing {
		side.IDs = append(side.IDs, b.ids...)
		side.Sets = append(side.Sets, b.sets...)
	}
	side.IDs = append(side.IDs, x.side.ids...)
	side.Sets = append(side.Sets, x.side.sets...)
	m := &snapshot.Manifest{
		FormatVersion:   snapshot.Version,
		Lambda:          x.lambda,
		Partition:       x.opt.Partition.String(),
		PrimaryShards:   x.opt.Shards,
		MergeThreshold:  x.opt.MergeThreshold,
		Trees:           x.opt.Trees,
		LeafSize:        x.opt.LeafSize,
		T:               x.opt.T,
		Seed:            x.opt.Seed,
		NextSlot:        x.nextSlot,
		Total:           x.total,
		Appends:         x.appends,
		Merges:          x.merges,
		Deletes:         x.deletes,
		Compactions:     x.compactions,
		CompactedShards: x.compactedShards,
		RingGeneration:  x.generation,
		Side:            side,
		Tombstones:      sortedTombstones(x.tombs),
		DroppedBitmap:   x.dropped.Bytes(),
	}
	if rt := x.runtime; rt != (RuntimeOptions{}) {
		m.Runtime = &snapshot.RuntimeState{
			AutoCompact: rt.AutoCompact,
			CacheSize:   rt.CacheSize,
		}
	}
	x.mu.RUnlock()

	m.Shards = make([]snapshot.ShardEntry, len(shards))
	errs := make([]error, len(shards))
	exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(shards), func(i int) {
		sh := shards[i]
		file := shardFileName(gen, i)
		m.Shards[i] = snapshot.ShardEntry{File: file, Seed: sh.seed, Sets: len(sh.ids)}
		errs[i] = saveShard(filepath.Join(dir, file), sh, x.signer)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := snapshot.WriteManifest(dir, m); err != nil {
		return err
	}
	return pruneUnreferenced(dir, m)
}

func sortedTombstones(ids map[int]struct{}) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// saveShard writes one shard file: a loaded shard's container holds its
// canonical bytes, so saving it is a file copy with no re-encode; a built
// shard, which has no container, is encoded straight into the file.
func saveShard(path string, sh *localShard, signer *ringSigner) error {
	if snap := sh.res.snap; snap != nil {
		return snapshot.WriteRawFile(path, snap.Bytes())
	}
	return snapshot.WriteFile(path, shardKind, func(w *snapshot.Writer) error {
		return encodeShardSections(w, sh, signer)
	})
}

// encodeShardSections writes one shard's container body — cpindex
// sections, the local→global id map, and the containment signatures. Only
// a built shard is ever encoded. Encoding forces the containment side to
// exist, so every container carries the section and a reader never signs
// its sets: for a shard that never served a containment query that is one
// signing pass plus the side's sorted orders (4·T bytes per set, about 0.1 s
// per 10 000 sets in all) and 4·T bytes per set in the file.
func encodeShardSections(w *snapshot.Writer, sh *localShard, signer *ringSigner) error {
	if err := sh.res.hot.EncodeSections(w); err != nil {
		return err
	}
	var ids snapshot.Buf
	ids.Uvarint(uint64(len(sh.ids)))
	for _, id := range sh.ids {
		ids.Uvarint(uint64(id))
	}
	if err := w.Section("ids", ids.B); err != nil {
		return err
	}
	c, err := sh.containSide(signer)
	if err != nil {
		return err
	}
	var cb snapshot.Buf
	cb.U32(uint32(c.T()))
	cb.U64(c.Seed())
	cb.U32(uint32(c.Len()))
	cb.B = append(cb.B, snapshot.Bytes(c.Signatures())...)
	return w.Section("contain", cb.B)
}

// containHeader validates a containment section's framing against the
// shard it belongs to and returns the signature bytes. The header is 16
// bytes fixed-width (T u32, seed u64, n u32), so the matrix behind it is
// 4-aligned in the container. The T and seed it names must be signer's:
// every container a ring opens was written under the ring's own options,
// and candidates signed under any others would not be the ring's answers.
func containHeader(raw []byte, nsets int, signer *ringSigner) ([]byte, error) {
	c := snapshot.NewCursor("contain", raw)
	t := int(c.U32())
	seed := c.U64()
	if t == 0 || t > 1<<16 {
		c.Fail("implausible signature length %d", t)
	}
	if n := c.U32(); uint64(nsets) != uint64(n) {
		c.Fail("containment side covers %d sets, shard holds %d", n, nsets)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if want := signer.opts; t != want.T || seed != want.Seed {
		return nil, fmt.Errorf("%w: section %q: signed under T=%d seed %d, the ring signs under T=%d seed %d",
			snapshot.ErrCorrupt, "contain", t, seed, want.T, want.Seed)
	}
	if nsets*t*4 != c.Remaining() {
		return nil, fmt.Errorf("%w: section %q: %d signature bytes for %d sets with T=%d",
			snapshot.ErrCorrupt, "contain", c.Remaining(), nsets, t)
	}
	return raw[len(raw)-c.Remaining():], nil
}

// decodeContainPayload rebuilds the candidate structure of one containment
// section over the given sets — no signing, but the sorted orders are
// rebuilt (T sorts per cardinality band), the one part of opening a shard
// that is more than validation; hence lazy. The signatures are a View of raw:
// the index reads the container its shard keeps mapped (see
// localShard.contain). It shares signer, the ring's, which the section's
// header must name.
func decodeContainPayload(raw []byte, sets [][]uint32, signer *ringSigner) (*contain.Index, error) {
	sigBytes, err := containHeader(raw, len(sets), signer)
	if err != nil {
		return nil, err
	}
	ci, err := contain.FromSignatures(sets, snapshot.View[uint32](sigBytes), signer.get())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return ci, nil
}

// pruneUnreferenced deletes every shard file the freshly written
// manifest does not name: earlier generations, shards of a larger
// previous snapshot, and leftovers of crashed saves. It runs only after
// the manifest landed, so nothing the directory's reader could need is
// ever removed.
func pruneUnreferenced(dir string, m *snapshot.Manifest) error {
	keep := make(map[string]bool, len(m.Shards))
	for _, e := range m.Shards {
		keep[e.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".cps") || keep[name] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// LoadOptions controls how a snapshot directory reopens.
type LoadOptions struct {
	// Workers is the shard-load parallelism (0 = sequential, negative =
	// GOMAXPROCS); it also becomes the loaded index's Workers option.
	Workers int
	// Tiering picks the storage tier the loaded shards keep: hot (or "",
	// the default) validates every shard file and copies its trie and sets
	// to the heap, cold leaves them in the mapped files. Shards a later seal
	// or compaction builds are on the heap either way.
	Tiering Tier
}

// Load reopens an index saved by Save in the hot tier. Shard files load as
// parallel tasks on the execution layer with the given worker count (0 =
// sequential, negative = GOMAXPROCS), which also becomes the loaded index's
// Workers option for future seals and batch queries; everything else —
// options, counters, side shard, tombstones, runtime options — comes from
// the manifest. A corrupt or truncated snapshot returns a descriptive error
// wrapping snapshot.ErrCorrupt (or ErrVersion), never a panic.
func Load(dir string, workers int) (*Index, error) {
	return LoadWithOptions(dir, LoadOptions{Workers: workers})
}

// LoadWithOptions is Load with the storage tier under caller control.
func LoadWithOptions(dir string, lo LoadOptions) (*Index, error) {
	workers := lo.Workers
	tier, err := ParseTier(string(lo.Tiering))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	var part Partition
	switch m.Partition {
	case PartitionContiguous.String():
		part = PartitionContiguous
	case PartitionHash.String():
		part = PartitionHash
	default:
		return nil, fmt.Errorf("%s: %w: unknown partition scheme %q",
			dir, snapshot.ErrCorrupt, m.Partition)
	}
	// The side shard arrives pre-decoded from JSON, so it gets the same
	// invariant checks the binary decoders enforce: non-empty (a seal
	// must be able to MinHash-sign every buffered set) and strictly
	// increasing (what Jaccard verification assumes).
	if err := snapshot.ValidateSets(m.Side.Sets); err != nil {
		return nil, fmt.Errorf("%s: side shard: %w", dir, err)
	}

	opt := (&Options{
		Shards:         m.PrimaryShards,
		Partition:      part,
		MergeThreshold: m.MergeThreshold,
		Trees:          m.Trees,
		LeafSize:       m.LeafSize,
		T:              m.T,
		Seed:           m.Seed,
		Workers:        workers,
	}).withDefaults()
	x := &Index{
		lambda:          m.Lambda,
		opt:             opt,
		signer:          newRingSigner(opt.Seed),
		side:            &sideBuffer{sets: m.Side.Sets, ids: m.Side.IDs},
		nextSlot:        m.NextSlot,
		total:           m.Total,
		appends:         m.Appends,
		merges:          m.Merges,
		deletes:         m.Deletes,
		compactions:     m.Compactions,
		compactedShards: m.CompactedShards,
		generation:      m.RingGeneration,
	}
	if len(m.Tombstones) > 0 {
		x.tombs = make(map[int]struct{}, len(m.Tombstones))
		for _, id := range m.Tombstones {
			x.tombs[id] = struct{}{}
		}
	}
	// The dropped set arrives as a dense bitmap. A dropped id is
	// physically absent: it must not double as a tombstone (that would
	// wrongly debit the live count below) or still sit in the side shard.
	if x.dropped = m.DroppedIDs(); x.dropped != nil {
		for _, id := range m.Tombstones {
			if x.dropped.Get(id) {
				return nil, fmt.Errorf("%s: %w: id %d both dropped and tombstoned",
					dir, snapshot.ErrCorrupt, id)
			}
		}
		for _, id := range m.Side.IDs {
			if x.dropped.Get(id) {
				return nil, fmt.Errorf("%s: %w: dropped id %d still in side shard",
					dir, snapshot.ErrCorrupt, id)
			}
		}
	}

	x.shards = make([]*localShard, len(m.Shards))
	errs := make([]error, len(m.Shards))
	exec.RunItems(exec.EffectiveWorkers(workers), len(m.Shards), func(i int) {
		path := filepath.Join(dir, m.Shards[i].File)
		x.shards[i], errs[i] = loadTieredShard(path, m.Shards[i], m.Total, tier, x.signer)
	})
	for i, err := range errs {
		if err != nil {
			// Name the failing shard file: an unreadable or corrupt shard is
			// a per-shard condition, not manifest corruption, and the
			// operator needs to know which file to restore.
			return nil, fmt.Errorf("shard %q: %w", m.Shards[i].File, err)
		}
	}
	x.metrics = newIndexMetrics(x)
	for _, sh := range x.shards {
		x.attachCounters(sh)
	}
	// One pass over every physically present id checks the remaining
	// cross-invariants: a dropped id must be absent from every shard (a
	// manifest claiming otherwise would resurrect a reclaimed entry as
	// live data that Delete, which skips dropped ids, could never remove),
	// and every tombstone must be physically present somewhere (a ghost
	// tombstone would debit the live count below for an id that does not
	// exist).
	present := 0
	for _, id := range m.Side.IDs {
		if _, dead := x.tombs[id]; dead {
			present++
		}
	}
	for _, sh := range x.shards {
		for _, id := range sh.ids {
			if x.dropped.Get(id) {
				return nil, fmt.Errorf("%s: %w: dropped id %d still present in a shard",
					dir, snapshot.ErrCorrupt, id)
			}
			if _, dead := x.tombs[id]; dead {
				present++
			}
		}
	}
	if present != len(x.tombs) {
		return nil, fmt.Errorf("%s: %w: %d of %d tombstoned ids not present in any shard",
			dir, snapshot.ErrCorrupt, len(x.tombs)-present, len(x.tombs))
	}

	// live is derived, not stored: every physically present id minus the
	// tombstones (all physically present, per the check above, so the
	// subtraction cannot go negative).
	x.live = len(x.side.ids) - len(x.tombs)
	for _, sh := range x.shards {
		x.live += len(sh.ids)
	}
	// Re-apply the runtime configuration the index was saved with, so a
	// restart restores tuning (cache, auto-compaction) and not just data.
	// Absent when everything was at its default.
	if rt := m.Runtime; rt != nil {
		if err := x.Configure(RuntimeOptions{AutoCompact: rt.AutoCompact, CacheSize: rt.CacheSize}); err != nil {
			return nil, fmt.Errorf("%s: %w: saved runtime options: %v", dir, snapshot.ErrCorrupt, err)
		}
	}
	return x, nil
}

// loadTieredShard maps one shard file, cross-checks it against its manifest
// entry, and opens it in the given tier, which the shard keeps. Cold stops
// there. Hot reads and checksums every section and clones the trie and the
// sets onto the heap, so the hot view reads no container bytes and survives
// its shard, then checks that the containment section was signed under
// signer: what a hot load accepts cannot fail later. Only the containment
// side's sorted orders stay unbuilt until a containment query wants them, as
// after Build; they are the one part of a load that is not validation.
// Either way the shard keeps its container, so saving it is a byte copy.
func loadTieredShard(path string, entry snapshot.ShardEntry, total int, tier Tier, signer *ringSigner) (*localShard, error) {
	f, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openLocalShard(f, entry, total)
	if err == nil && tier == TierHot {
		if s.res.hot, err = s.res.cold.Index(); err == nil {
			var raw []byte
			if raw, err = s.res.snap.Section("contain"); err == nil {
				_, err = containHeader(raw, len(s.ids), signer)
			}
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}
