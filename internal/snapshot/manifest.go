package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/intset"
)

// ManifestFile is the file name of a sharded-index directory manifest.
const ManifestFile = "manifest.json"

// Manifest is the JSON root of a persisted sharded index: everything
// needed to reopen the directory — shard files and their seeds, the
// partition scheme and build options for future seals, the unsealed
// side-shard contents, the deleted set, and the counters that make a restarted
// service indistinguishable from one that never stopped. It is JSON (not
// the binary container) on purpose: the manifest is the part an operator
// inspects and tooling diffs, while the bulk per-shard structures stay
// binary.
type Manifest struct {
	FormatVersion  int     `json:"format_version"`
	Lambda         float64 `json:"lambda"`
	Partition      string  `json:"partition"`
	PrimaryShards  int     `json:"primary_shards"`
	MergeThreshold int     `json:"merge_threshold"`
	Trees          int     `json:"trees"`
	LeafSize       int     `json:"leaf_size"`
	T              int     `json:"t"`
	Seed           uint64  `json:"seed"`
	// NextSlot is the next unclaimed shard seed slot; it only grows, so
	// seeds stay unique across save/load cycles and concurrent seals.
	NextSlot int `json:"next_slot"`
	// Total is the id high-water mark (ids are never reused, even after
	// deletes); Appends/Merges/Deletes are the lifetime counters.
	Total   int `json:"total"`
	Appends int `json:"appends"`
	Merges  int `json:"merges"`
	Deletes int `json:"deletes"`
	// Compactions/CompactedShards count completed compaction passes and
	// the ring shards they removed or rewrote; RingGeneration counts ring
	// changes (seals and compaction swaps). All informational — a reopened
	// index continues the counts rather than restarting them.
	Compactions     int `json:"compactions,omitempty"`
	CompactedShards int `json:"compacted_shards,omitempty"`
	RingGeneration  int `json:"ring_generation,omitempty"`
	// Shards lists the sealed shard files in ring order.
	Shards []ShardEntry `json:"shards"`
	// Side is the unsealed side-shard state, stored inline: it is bounded
	// by the merge threshold, so JSON keeps the whole directory readable
	// with one binary format instead of two.
	Side SideState `json:"side"`
	// Tombstones and DroppedBitmap are the index's one deleted set (every
	// id ever deleted) in two disjoint halves. Tombstones, sorted
	// ascending, are the ids some shard or Side still holds: query merges
	// filter them, and a load checks that each is held.
	Tombstones []int `json:"tombstones,omitempty"`
	// DroppedBitmap is the rest, the ids whose physical entries a seal or a
	// compaction reclaimed, as a dense bitmap over [0, Total): byte i/8 bit
	// i%8 set means id i is dropped, trailing zero bytes trimmed
	// (intset.Bitmap's canonical encoding, base64 on the wire via
	// encoding/json). The loaded index needs it so a repeat Delete of a
	// reclaimed id stays a no-op instead of corrupting the live count; a
	// bitmap bounds the cost by ids ever assigned (Total/8 bytes) instead of
	// by lifetime delete volume. A load checks that none is held.
	DroppedBitmap []byte `json:"dropped_bitmap,omitempty"`
}

// DroppedIDs decodes the dropped half of the deleted set (nil when empty).
func (m *Manifest) DroppedIDs() *intset.Bitmap {
	if len(m.DroppedBitmap) == 0 {
		return nil
	}
	return intset.BitmapFromBytes(m.DroppedBitmap)
}

// ShardEntry describes one sealed shard file.
type ShardEntry struct {
	File string `json:"file"`
	Seed uint64 `json:"seed"`
	Sets int    `json:"sets"`
}

// SideState is the persisted unsealed side shard: parallel id/set lists.
type SideState struct {
	IDs  []int      `json:"ids,omitempty"`
	Sets [][]uint32 `json:"sets,omitempty"`
}

// WriteManifest writes dir's manifest atomically (temp file + rename),
// and last: Save orders it after the shard files so a directory with a
// manifest always has every file the manifest names.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return WriteRawFile(filepath.Join(dir, ManifestFile), append(data, '\n'))
}

// ReadManifest reads and validates dir's manifest. Version mismatches
// wrap ErrVersion; structural problems wrap ErrCorrupt.
func ReadManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(path, data)
}

// decodeManifest parses and validates raw manifest bytes; path only
// labels errors. Split from ReadManifest so the fuzz target can drive
// the validation logic without touching the filesystem. Keys the Manifest
// does not declare are ignored, so a directory written by an earlier build
// still loads: its compaction knobs (compact_small, compact_min_shards,
// compact_tombstone_ratio), its shipped-shard record (placement) and the
// serving settings it was saved with (runtime: tiering, cache_size,
// auto_compact) are skipped. A snapshot holds data; the process that opens
// it chooses how to serve it.
func decodeManifest(path string, data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w: %v", path, ErrCorrupt, err)
	}
	if err := checkVersion("manifest", int64(m.FormatVersion)); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Lambda <= 0 || m.Lambda >= 1 {
		return nil, fmt.Errorf("%s: %w: lambda %v out of (0,1)", path, ErrCorrupt, m.Lambda)
	}
	if len(m.Side.IDs) != len(m.Side.Sets) {
		return nil, fmt.Errorf("%s: %w: side shard has %d ids for %d sets",
			path, ErrCorrupt, len(m.Side.IDs), len(m.Side.Sets))
	}
	if m.Total < 0 || m.NextSlot < 0 {
		return nil, fmt.Errorf("%s: %w: negative counters (total=%d next_slot=%d)",
			path, ErrCorrupt, m.Total, m.NextSlot)
	}
	for _, id := range m.Tombstones {
		if id < 0 || id >= m.Total {
			return nil, fmt.Errorf("%s: %w: tombstone id %d out of [0,%d)", path, ErrCorrupt, id, m.Total)
		}
	}
	if hi := intset.BitmapFromBytes(m.DroppedBitmap).Max(); hi >= m.Total {
		return nil, fmt.Errorf("%s: %w: dropped id %d out of [0,%d)", path, ErrCorrupt, hi, m.Total)
	}
	for _, id := range m.Side.IDs {
		if id < 0 || id >= m.Total {
			return nil, fmt.Errorf("%s: %w: side shard id %d out of [0,%d)", path, ErrCorrupt, id, m.Total)
		}
	}
	return &m, nil
}
