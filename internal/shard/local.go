package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/contain"
	"repro/internal/cpindex"
	"repro/internal/intset"
	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// localShard is one sealed in-process ring shard: a cpindex over a subset
// of the collection plus the map from shard-local ids back to global ids.
//
// Every shard is one *cpindex.Index, validated before the shard exists:
// built, or opened from a cpshard container whose every section was
// checksummed and checked at load. Its tier only says where the index's
// arrays lie. Hot, they are on the heap — built there, or cloned there by a
// hot load. Cold, they are the trees section and the token region of the
// shard's memory-mapped container, read in place, which the shard pins.
// Both run the same kernel over equal tries and equal [][]uint32, so answers
// are byte-identical, the walk and the verification cost the same, and no
// query can fail; a cold shard costs page cache, 24 B of header per set and
// its id map. A loaded shard keeps its container, so saving it is a byte
// copy, whichever tier it is in.
//
// Shards never apply tombstones: deletes are index state, filtered at merge
// time.
type localShard struct {
	ids  []int  // local id -> global id
	seed uint64 // build seed: the shard's identity in manifests

	ix   *cpindex.Index
	cold bool // ix's trie and sets are views of snap, not heap arrays

	// A loaded shard's container: snap is the exact bytes Save copies,
	// validated at load; file pins the mapping behind it (and behind a cold
	// ix). Both nil for a built shard.
	snap *snapshot.Mapped
	file *mmap.File

	// contain is the shard's containment side, the LSH Ensemble candidate
	// structure. It is derived state, never stored: built on the first
	// containment query, whether the shard was built, loaded or saved, so
	// similarity-only workloads never pay for it. It owns no sets: a query
	// verifies its candidates against ix's. containMu serializes the
	// one-time build; readers go through the atomic pointer.
	containMu sync.Mutex
	contain   atomic.Pointer[contain.Index]
}

// newLocalShard wraps a freshly built index: hot, no container.
func newLocalShard(ix *cpindex.Index, ids []int) *localShard {
	return &localShard{ids: ids, seed: ix.Options().Seed, ix: ix}
}

// traceName names ring entry i in query traces.
func (s *localShard) traceName(i int) (name, kind string) {
	if s.cold {
		return fmt.Sprintf("cold-%d", i), "cold"
	}
	return fmt.Sprintf("local-%d", i), "local"
}

// query is the only route from the ring into a shard: every call reports
// the shard's candidate-pipeline stats, traced or not, and writes nothing
// the shard's other queries share. It appends every match to dst, under
// shard-local ids, unfiltered and in shard-traversal order: the merge maps
// the ids, drops the deleted ones and sorts.
func (s *localShard) query(p plan, q []uint32, dst []Match) ([]Match, cpindex.QueryStats) {
	var st cpindex.QueryStats
	if p.kind == kindContain {
		c, sets := s.containSide(p.signer), s.ix.Sets()
		cands := c.QuerySigned(p.sig, len(q), p.threshold)
		st.Candidates, st.Verified = uint64(len(cands)), uint64(len(cands))
		for _, lid := range cands {
			if sim, ok := intset.ContainmentAtLeast(q, sets[lid], p.threshold); ok {
				dst = append(dst, Match{ID: int(lid), Sim: sim})
			}
		}
	} else {
		dst, st = s.ix.AppendAllWithStats(dst, q)
	}
	runtime.KeepAlive(s) // a cold ix reads the mapping s pins
	return dst, st
}

// heapSets returns the collection for a reader that outlives the shard (a
// compaction's merged shard keeps its victims' sets): a hot shard's own
// slice, or a fresh copy out of a cold shard's container.
func (s *localShard) heapSets() [][]uint32 {
	if !s.cold {
		return s.ix.Sets()
	}
	sets := snapshot.CloneSets(s.ix.Sets())
	runtime.KeepAlive(s)
	return sets
}

// containSide returns the shard's containment side, building it on first
// use. Double-checked under containMu so concurrent first queries build
// once. The side signs the shard's sets under signer, so it shares the
// ring's hash functions with every other shard's.
func (s *localShard) containSide(signer *ringSigner) *contain.Index {
	if c := s.contain.Load(); c != nil {
		return c
	}
	s.containMu.Lock()
	defer s.containMu.Unlock()
	if c := s.contain.Load(); c != nil {
		return c
	}
	c := signer.get().Build(s.ix.Sets())
	runtime.KeepAlive(s) // a cold shard's sets alias the mapping s pins
	s.contain.Store(c)
	return c
}

// openLocalShard maps one cpshard file and opens it in the given tier, which
// the shard keeps, after validating all of it: every section's checksum, the
// meta, the trie and the sets (cpindex's first touch), the id map against the
// manifest-level identity — id bounds, id/set count agreement, the build
// seed. A hot shard then clones its trie and sets onto the heap; a cold one
// keeps the views. Either way the shard pins the mapping and keeps the
// container, so saving it is a byte copy and nothing it serves can fail
// later. The containment side is not in the container: it is built on the
// first containment query, as after Build.
func openLocalShard(path string, entry snapshot.ShardEntry, total int, tier Tier) (_ *localShard, err error) {
	f, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	snap, err := snapshot.OpenMapped(f.Data, shardKind)
	if err != nil {
		return nil, err
	}
	m, err := cpindex.OpenMapped(snap, f)
	if err != nil {
		return nil, err
	}
	raw, err := snap.Section("ids")
	if err != nil {
		return nil, err
	}
	c := snapshot.NewCursor("ids", raw)
	ids := make([]int, c.Count(total))
	for i := range ids {
		id := c.Uvarint()
		if id >= uint64(total) {
			c.Fail("global id %d out of [0,%d)", id, total)
			break
		}
		ids[i] = int(id)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	if len(ids) != m.Len() {
		return nil, fmt.Errorf("%w: shard has %d ids for %d sets",
			snapshot.ErrCorrupt, len(ids), m.Len())
	}
	if m.Len() != entry.Sets {
		return nil, fmt.Errorf("%w: shard holds %d sets, manifest says %d",
			snapshot.ErrCorrupt, m.Len(), entry.Sets)
	}
	if got := m.Options().Seed; got != entry.Seed {
		return nil, fmt.Errorf("%w: shard built with seed %d, manifest says %d (files shuffled?)",
			snapshot.ErrCorrupt, got, entry.Seed)
	}
	s := &localShard{ids: ids, seed: entry.Seed, cold: tier == TierCold, snap: snap, file: f}
	if s.cold {
		s.ix, err = m.InPlace()
	} else {
		s.ix, err = m.Index()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}
