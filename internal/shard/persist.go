package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/exec"
	"repro/internal/intset"
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
// seals included — they reload as side-shard state), the deleted set and
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
	deleted := x.deleted
	m := &snapshot.Manifest{
		FormatVersion:   snapshot.Version,
		Lambda:          x.lambda,
		Partition:       x.opt.partitionName(),
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
	}
	x.mu.RUnlock()

	// One pass over the held ids splits the deleted set into the manifest's
	// two halves: the tombstones a load must find held, and the dropped rest.
	var tombs, dropped intset.Bitmap
	hold := func(ids []int) {
		for _, id := range ids {
			if deleted.Get(id) {
				tombs.Set(id)
			}
		}
	}
	hold(side.IDs)
	for _, sh := range shards {
		hold(sh.ids)
	}
	for _, id := range deleted.Ints() {
		if !tombs.Get(id) {
			dropped.Set(id)
		}
	}
	m.Tombstones, m.DroppedBitmap = tombs.Ints(), dropped.Bytes()

	m.Shards = make([]snapshot.ShardEntry, len(shards))
	errs := make([]error, len(shards))
	exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(shards), func(i int) {
		sh := shards[i]
		file := shardFileName(gen, i)
		m.Shards[i] = snapshot.ShardEntry{File: file, Seed: sh.seed, Sets: len(sh.ids)}
		errs[i] = saveShard(filepath.Join(dir, file), sh)
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

// saveShard writes one shard file: a loaded shard's container holds its
// canonical bytes, so saving it is a file copy with no re-encode; a built
// shard, which has no container, is encoded straight into the file.
func saveShard(path string, sh *localShard) error {
	if sh.snap != nil {
		err := snapshot.WriteRawFile(path, sh.snap.Bytes())
		runtime.KeepAlive(sh) // the bytes are the mapping sh pins
		return err
	}
	return snapshot.WriteFile(path, shardKind, func(w *snapshot.Writer) error {
		return encodeShardSections(w, sh)
	})
}

// encodeShardSections writes one shard's container body: the cpindex
// sections and the local→global id map. Only a built shard is ever encoded.
// The containment side is not written: it is derived from the sets on the
// first containment query, so saving a shard neither signs nor sorts.
func encodeShardSections(w *snapshot.Writer, sh *localShard) error {
	if err := sh.ix.EncodeSections(w); err != nil {
		return err
	}
	var ids snapshot.Buf
	ids.Uvarint(uint64(len(sh.ids)))
	for _, id := range sh.ids {
		ids.Uvarint(uint64(id))
	}
	return w.Section("ids", ids.B)
}

// pruneUnreferenced deletes every shard file the freshly written
// manifest does not name — earlier generations, shards of a larger
// previous snapshot, the shard files of a crashed save — and the temp files
// a save killed mid-write leaves (shard-….cps.tmp…, manifest.json.tmp…). It
// runs only after the manifest landed, and Save holds saveMu, so nothing the
// directory's reader could need is ever removed.
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
		ours := strings.HasPrefix(name, "shard-") && (strings.HasSuffix(name, ".cps") || strings.Contains(name, ".cps.tmp")) ||
			strings.HasPrefix(name, snapshot.ManifestFile+".tmp")
		if !ours || keep[name] {
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
	// Tiering picks the storage tier the loaded shards keep. Every shard
	// file is validated in full either way; hot (or "", the default) then
	// copies its trie and sets to the heap, cold leaves them in the mapped
	// file. Shards a later seal or compaction builds are on the heap.
	Tiering Tier
}

// Load reopens an index saved by Save in the hot tier. Shard files load as
// parallel tasks on the execution layer with the given worker count (0 =
// sequential, negative = GOMAXPROCS), which also becomes the loaded index's
// Workers option for future seals and batch queries; everything else —
// options, counters, side shard, deleted set — comes from the manifest.
// The loaded index starts with zero RuntimeOptions (no cache, no
// auto-compaction): the process that opens it sets them with Configure. A
// corrupt or truncated snapshot returns a descriptive error wrapping
// snapshot.ErrCorrupt (or ErrVersion), never a panic; what loads
// cannot fail a query later, in either tier.
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
	hash := m.Partition == "hash"
	if !hash && m.Partition != "contiguous" {
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
		HashPartition:  hash,
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
	// The deleted set is the dropped bitmap plus the tombstones, added to a
	// clone: the checks below need dropped as saved. A dropped id is
	// physically absent, so it must not double as a tombstone (that would
	// wrongly debit the live count).
	dropped := m.DroppedIDs()
	x.deleted, x.reclaimed = dropped, dropped.Count()
	for _, id := range m.Tombstones {
		if dropped.Get(id) {
			return nil, fmt.Errorf("%s: %w: id %d both dropped and tombstoned",
				dir, snapshot.ErrCorrupt, id)
		}
		if x.deleted == dropped {
			x.deleted = dropped.Clone()
		}
		x.deleted.Set(id)
	}

	x.shards = make([]*localShard, len(m.Shards))
	errs := make([]error, len(m.Shards))
	exec.RunItems(exec.EffectiveWorkers(workers), len(m.Shards), func(i int) {
		path := filepath.Join(dir, m.Shards[i].File)
		x.shards[i], errs[i] = openLocalShard(path, m.Shards[i], m.Total, tier)
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
	// cross-invariants: an id is held once, by one shard or by the side
	// buffer (an id held twice would be answered twice); a dropped id is
	// held nowhere (a manifest claiming otherwise would resurrect a
	// reclaimed entry as live data that Delete, which skips deleted ids,
	// could never remove); and every tombstone is held somewhere (a ghost
	// tombstone would debit the live count below for an id that does not
	// exist). Every id was checked to lie in [0, Total) already.
	var held intset.Bitmap
	present, tombs := 0, x.deleted.Count()-x.reclaimed
	hold := func(ids []int) error {
		for _, id := range ids {
			switch {
			case dropped.Get(id):
				return fmt.Errorf("%s: %w: dropped id %d still held", dir, snapshot.ErrCorrupt, id)
			case held.Get(id):
				return fmt.Errorf("%s: %w: id %d held twice", dir, snapshot.ErrCorrupt, id)
			case x.deleted.Get(id):
				present++
			}
			held.Set(id)
		}
		return nil
	}
	if err := hold(m.Side.IDs); err != nil {
		return nil, err
	}
	for _, sh := range x.shards {
		if err := hold(sh.ids); err != nil {
			return nil, err
		}
	}
	if present != tombs {
		return nil, fmt.Errorf("%s: %w: %d of %d tombstoned ids not present in any shard",
			dir, snapshot.ErrCorrupt, tombs-present, tombs)
	}

	// live is derived, not stored: every physically present id minus the
	// tombstones (all physically present, per the check above, so the
	// subtraction cannot go negative).
	x.live = len(x.side.ids) - tombs
	for _, sh := range x.shards {
		x.live += len(sh.ids)
	}
	return x, nil
}
