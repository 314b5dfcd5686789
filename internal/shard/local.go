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
// Its storage tier is a residency state, not a type, fixed when the shard is
// created: where the token array behind the sets lies and when it was
// validated. Hot, it is on the heap — built there, or cloned there by a hot
// load that validated every section first — and queries cannot fail; cold,
// it is the token region of the shard's cpshard container — memory-mapped,
// so untouched payload pages are never read — validated once at first touch,
// where corruption surfaces as an error wrapping snapshot.ErrCorrupt, never
// as a panic or a wrong answer. The trie lies where the sets lie: on the
// heap, or as typed views of the container's trees section. Both states run
// the same cpindex kernel over equal tries and equal [][]uint32, so answers
// are byte-identical and the walk and the verification cost the same; a cold
// shard costs page cache, 24 B of header per set and its id map. A loaded
// shard keeps its container, so saving it is a byte copy, whichever tier it
// is in.
//
// A hot shard cannot fail a query; a cold one fails only on a corrupt
// container. Shards never apply tombstones: deletes are index state,
// filtered at merge time.
type localShard struct {
	ids  []int  // local id -> global id
	seed uint64 // build seed: the shard's identity in manifests

	// res is set before the shard is published and never replaced.
	res residency

	// contain is the shard's containment side, the LSH Ensemble candidate
	// structure, built or decoded on the first containment query or encode —
	// similarity-only workloads never pay for it. It owns no sets: a query
	// verifies its candidates against the shard's residency. Its signatures
	// may be a view of the shard's container (see decodeContainPayload),
	// which stays mapped for as long as the shard is reachable. containMu
	// serializes the one-time load; readers go through the atomic pointer.
	containMu sync.Mutex
	contain   atomic.Pointer[contain.Index]
}

// residency says where a shard's bytes live. At least one view is set.
type residency struct {
	hot  *cpindex.Index   // sets on the heap; nil for a cold shard
	cold *cpindex.Mapped  // the container's view, which pins its mapping; nil for a built shard
	snap *snapshot.Mapped // cold's container: the exact bytes Save copies
}

// newLocalShard wraps a freshly built index: hot, no container.
func newLocalShard(ix *cpindex.Index, ids []int) *localShard {
	return &localShard{ids: ids, seed: ix.Options().Seed, res: residency{hot: ix}}
}

func (s *localShard) isCold() bool { return s.res.hot == nil }

// traceName names ring entry i in query traces.
func (s *localShard) traceName(i int) (name, kind string) {
	if s.isCold() {
		return fmt.Sprintf("cold-%d", i), "cold"
	}
	return fmt.Sprintf("local-%d", i), "local"
}

// structure returns the shard's node and leaf counts.
func (s *localShard) structure() (nodes, leaves int) {
	r := &s.res
	if r.hot != nil {
		return r.hot.Nodes, r.hot.Leaves
	}
	return r.cold.Structure()
}

// query is the only route from the ring into a shard: every call reports
// the shard's candidate-pipeline stats, traced or not, and writes nothing
// the shard's other queries share. It answers with global ids: the best
// match — highest similarity, then lowest id within the shard's traversal
// order — or every match, unfiltered and in shard-traversal order (the
// merge sorts).
func (s *localShard) query(p plan, q []uint32) (res Result, st cpindex.QueryStats, err error) {
	res = noMatch
	r := &s.res
	switch p.kind {
	case kindBest:
		var id int
		if r.hot != nil {
			id, res.Best.Sim, res.Found, st = r.hot.QueryWithStats(q)
		} else {
			id, res.Best.Sim, res.Found, st, err = r.cold.QueryWithStats(q)
		}
		if err != nil || !res.Found {
			return noMatch, st, err
		}
		res.Best.ID = s.ids[id]
	case kindAll:
		if r.hot != nil {
			res.Matches, st = r.hot.AppendAllWithStats(nil, q)
		} else if res.Matches, st, err = r.cold.AppendAllWithStats(nil, q); err != nil {
			return noMatch, st, err
		}
		for i := range res.Matches {
			res.Matches[i].ID = s.ids[res.Matches[i].ID]
		}
	case kindContain:
		c, err := s.containSide(p.signer)
		if err != nil {
			return noMatch, st, err
		}
		sets, err := r.sets()
		if err != nil {
			return noMatch, st, err
		}
		cands := c.QuerySigned(p.sig, len(q), p.threshold)
		st.Candidates, st.Verified = uint64(len(cands)), uint64(len(cands))
		for _, lid := range cands {
			if sim, ok := intset.ContainmentAtLeast(q, sets[lid], p.threshold); ok {
				res.Matches = append(res.Matches, Match{ID: s.ids[lid], Sim: sim})
			}
		}
		runtime.KeepAlive(s) // c and a cold r's sets read the mapping s pins
	}
	res.Found = res.Found || len(res.Matches) > 0
	return res, st, nil
}

// sets returns the collection where the residency keeps it: the hot view's
// heap slice, or the cold view's headers over the container, which are valid
// only while the shard is reachable (end their use with runtime.KeepAlive).
func (r *residency) sets() ([][]uint32, error) {
	if r.hot != nil {
		return r.hot.Sets(), nil
	}
	return r.cold.View()
}

// heapSets returns the collection for a reader that outlives the shard (a
// compaction's merged shard keeps its victims' sets): the hot view's own
// slice, or a fresh copy out of the container.
func (r *residency) heapSets() ([][]uint32, error) {
	if r.hot != nil {
		return r.hot.Sets(), nil
	}
	return r.cold.Sets()
}

// containSide returns the shard's containment side, loading it on first
// use. Double-checked under containMu so concurrent first queries load
// once. A shard with a container reads the signatures it persisted, which
// must have been signed under signer, the ring's; a built shard, which has
// no container, signs its sets. Either way the side shares signer with every
// other shard of the ring.
func (s *localShard) containSide(signer *ringSigner) (*contain.Index, error) {
	if c := s.contain.Load(); c != nil {
		return c, nil
	}
	s.containMu.Lock()
	defer s.containMu.Unlock()
	if c := s.contain.Load(); c != nil {
		return c, nil
	}
	r := &s.res
	sets, err := r.sets()
	if err != nil {
		return nil, err
	}
	var c *contain.Index
	if r.snap == nil {
		c = signer.get().Build(sets)
	} else {
		raw, err := r.snap.Section("contain")
		if err == nil {
			c, err = decodeContainPayload(raw, sets, signer)
		}
		if err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(s) // sets and raw may alias the mapping r.cold pins
	s.contain.Store(c)
	return c, nil
}

// openLocalShard opens a cold shard over one mapped cpshard container and
// cross-checks it against its manifest-level identity: id bounds, id/set
// count agreement, the build seed. Only the headers, the meta section and
// the id map are read; f is pinned for the views' lifetime.
func openLocalShard(f *mmap.File, entry snapshot.ShardEntry, total int) (*localShard, error) {
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
	return &localShard{ids: ids, seed: entry.Seed, res: residency{cold: m, snap: snap}}, nil
}
