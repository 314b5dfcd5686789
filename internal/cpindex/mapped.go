package cpindex

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/snapshot"
)

// Mapped is the view of the kernel whose collection stays inside a
// snapshot container (typically an mmap'd file) — the cold tier. Opening
// one costs only the meta section, a few dozen bytes, regardless of index
// size:
//
//   - the trie is read and validated on the first query (one-time,
//     structure-only);
//   - the sets payload stays untouched until a candidate reaches exact
//     verification, at which point the whole section is CRC-verified once
//     and each candidate is decoded into pooled scratch, re-checking the
//     strictly-increasing invariant verification assumes.
//
// Answers and QueryStats are identical to Index's because both run the
// same kernel; a flipped bit in any section surfaces as ErrCorrupt at open
// or first touch, never as a wrong answer.
//
// All query methods are safe for concurrent use, like Index's.
type Mapped struct {
	*kernel
	snap *snapshot.Mapped
	// retain pins the mapping's owner (an mmap.File) for the GC: the
	// snapshot bytes alias memory the collector cannot see, so every
	// method that touches them ends with a KeepAlive of this reference.
	retain any

	nodes, leaves int

	// structOnce reads the trie (CRC-verified) and indexes the sets
	// payload's size prefix on first use.
	structOnce sync.Once
	structErr  error
}

// mappedSets locates the collection inside the container's sets payload.
type mappedSets struct {
	snap       *snapshot.Mapped
	tokenStart []int64 // per-set first token index, len nsets+1
	tokens     []byte  // token region of the payload (aliases snap)

	// once runs the deferred sets-section checksum the first time any set
	// is read — the "first touch" of the payload.
	once sync.Once
	err  error
}

// OpenMapped builds the mapped view over an already-validated container.
// Only the meta section is read (and CRC-verified) here; retain is held
// for the lifetime of the Mapped to keep the backing mapping alive.
func OpenMapped(snap *snapshot.Mapped, retain any) (*Mapped, error) {
	metaRaw, err := snap.Section("meta")
	if err != nil {
		return nil, err
	}
	k, nodes, leaves, err := decodeMeta(metaRaw)
	if err != nil {
		return nil, err
	}
	if snap.Lookup("sets") == nil || snap.Lookup("trees") == nil {
		return nil, fmt.Errorf("%w: container missing sets/trees sections", snapshot.ErrCorrupt)
	}
	return &Mapped{kernel: k, snap: snap, retain: retain, nodes: nodes, leaves: leaves}, nil
}

// Structure returns the persisted node/leaf counts.
func (m *Mapped) Structure() (nodes, leaves int) { return m.nodes, m.leaves }

// ensureStruct reads the trie (checksummed, validated) and the sets size
// prefix. The prefix is parsed unverified — its guards reject anything the
// query path could trip over, and the deferred whole-section CRC still
// runs before any answer derived from payload bytes is returned.
func (m *Mapped) ensureStruct() error {
	m.structOnce.Do(func() {
		treesRaw, err := m.snap.Section("trees")
		if err != nil {
			m.structErr = err
			return
		}
		t, err := decodeTrie(treesRaw, m.opt, m.nsets, m.nodes, m.leaves)
		if err != nil {
			m.structErr = err
			return
		}
		setsRaw, err := m.snap.Raw("sets")
		if err != nil {
			m.structErr = err
			return
		}
		if m.nsets > len(setsRaw) { // each size varint takes >= 1 byte
			m.structErr = fmt.Errorf("%w: section %q: set count %d exceeds its %d bytes", snapshot.ErrCorrupt, "sets", m.nsets, len(setsRaw))
			return
		}
		c := snapshot.NewCursor("sets", setsRaw)
		starts := make([]int64, m.nsets+1)
		var total int64
		for i := 0; i < m.nsets; i++ {
			starts[i] = total
			size := c.Uvarint()
			if size > maxMappedSetSize {
				m.structErr = fmt.Errorf("%w: section %q: implausible set size %d", snapshot.ErrCorrupt, "sets", size)
				return
			}
			total += int64(size)
		}
		starts[m.nsets] = total
		if c.Err() != nil {
			m.structErr = c.Err()
			return
		}
		if int64(c.Remaining()) != total*4 {
			m.structErr = fmt.Errorf("%w: section %q: %d tokens for %d remaining bytes",
				snapshot.ErrCorrupt, "sets", total, c.Remaining())
			return
		}
		m.trie = t
		m.mapped = &mappedSets{snap: m.snap, tokenStart: starts, tokens: setsRaw[len(setsRaw)-c.Remaining():]}
	})
	runtime.KeepAlive(m.retain)
	return m.structErr
}

// maxMappedSetSize mirrors snapshot.DecodeSets's per-set size cap.
const maxMappedSetSize = 1 << 28

// verify runs the deferred sets-section checksum — the first (and only)
// whole-payload read of the mapped path.
func (s *mappedSets) verify() error {
	s.once.Do(func() { s.err = s.snap.Verify("sets") })
	return s.err
}

// decode decodes set id's tokens into buf (which must have room),
// revalidating the strictly-increasing invariant verification assumes.
func (s *mappedSets) decode(buf []uint32, id int) error {
	raw := s.tokens[s.tokenStart[id]*4 : s.tokenStart[id+1]*4]
	for i := range buf {
		buf[i] = binary.LittleEndian.Uint32(raw[i*4:])
		if i > 0 && buf[i] <= buf[i-1] {
			return fmt.Errorf("%w: section %q: set %d not strictly increasing", snapshot.ErrCorrupt, "sets", id)
		}
	}
	return nil
}

// candidate returns candidate id's decoded tokens in the scratch buffer,
// running the deferred sets checksum first.
func (s *mappedSets) candidate(sc *queryScratch, id uint32) ([]uint32, error) {
	if err := s.verify(); err != nil {
		return nil, err
	}
	n := int(s.tokenStart[id+1] - s.tokenStart[id])
	if cap(sc.setBuf) < n {
		sc.setBuf = make([]uint32, n)
	}
	buf := sc.setBuf[:n]
	return buf, s.decode(buf, int(id))
}

// Query is Index.Query over the mapped collection, with corruption
// surfaced as an error instead of a panic or a wrong answer.
func (m *Mapped) Query(q []uint32) (int, float64, bool, error) {
	id, sim, ok, _, err := m.QueryWithStats(q)
	return id, sim, ok, err
}

// QueryWithStats is Index.QueryWithStats with the error surfaced.
func (m *Mapped) QueryWithStats(q []uint32) (int, float64, bool, QueryStats, error) {
	if err := m.ensureStruct(); err != nil {
		return -1, 0, false, QueryStats{}, err
	}
	id, sim, ok, st, err := m.best(q)
	runtime.KeepAlive(m.retain)
	return id, sim, ok, st, err
}

// AppendAll is Index.AppendAll with the error surfaced.
func (m *Mapped) AppendAll(dst []Match, q []uint32) ([]Match, error) {
	dst, _, err := m.AppendAllWithStats(dst, q)
	return dst, err
}

// AppendAllWithStats is Index.AppendAllWithStats with the error surfaced.
func (m *Mapped) AppendAllWithStats(dst []Match, q []uint32) ([]Match, QueryStats, error) {
	if err := m.ensureStruct(); err != nil {
		return dst, QueryStats{}, err
	}
	dst, st, err := m.all(dst, q)
	runtime.KeepAlive(m.retain)
	return dst, st, err
}

// Sets materializes the whole collection onto the heap (one shared token
// array), running the deferred sets checksum first. It is deliberately
// NOT cached: callers own the copy's lifetime.
func (m *Mapped) Sets() ([][]uint32, error) {
	if err := m.ensureStruct(); err != nil {
		return nil, err
	}
	s := m.mapped
	if err := s.verify(); err != nil {
		return nil, err
	}
	tokens := make([]uint32, s.tokenStart[m.nsets])
	sets := make([][]uint32, m.nsets)
	for i := range sets {
		lo, hi := s.tokenStart[i], s.tokenStart[i+1]
		sets[i] = tokens[lo:hi:hi]
		if err := s.decode(sets[i], i); err != nil {
			return nil, err
		}
	}
	runtime.KeepAlive(m.retain)
	return sets, nil
}

// Index moves the collection onto the heap and returns the view that
// queries it there. The trie is shared with m, not decoded again, and the
// result references no container bytes — promoting a cold shard and
// loading a snapshot are both exactly this call.
func (m *Mapped) Index() (*Index, error) {
	sets, err := m.Sets()
	if err != nil {
		return nil, err
	}
	return &Index{
		kernel: &kernel{
			lambda:   m.lambda,
			opt:      m.opt,
			nsets:    m.nsets,
			signer:   m.signer,
			trie:     m.trie,
			sets:     sets,
			counters: m.counters,
		},
		Nodes:  m.nodes,
		Leaves: m.leaves,
	}, nil
}
