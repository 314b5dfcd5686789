package cpindex

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/snapshot"
)

// Mapped is the view of the kernel whose collection stays inside a
// snapshot container (typically an mmap'd file) — the cold tier. Opening
// one costs only the meta section, a few dozen bytes, regardless of index
// size. The first query is the first touch: it checksums the trees and sets
// sections and runs decodeTrie and snapshot.ReadSets over them once. Neither
// copies: afterwards the kernel's trie is five typed views of the trees
// section and its sets are headers over the sets section's token region, so a
// query walks and verifies exactly as Index does, over the container's own
// bytes, and a cold index costs page cache plus 24 B of header per set.
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
	// snapshot bytes — and, after first touch, the trie and the sets — alias
	// memory the collector cannot see, so every method that touches them
	// ends with a KeepAlive of this reference.
	retain any

	nodes, leaves int

	// structOnce is the first touch.
	structOnce sync.Once
	structErr  error
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

// ensureStruct is the first touch: both bulk sections checksummed, then
// validated and read in place.
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
		setsRaw, err := m.snap.Section("sets")
		if err != nil {
			m.structErr = err
			return
		}
		sets, err := snapshot.ReadSets(setsRaw, uint64(m.nsets))
		if err != nil {
			m.structErr = err
			return
		}
		m.trie, m.sets = t, sets
	})
	runtime.KeepAlive(m.retain)
	return m.structErr
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
	id, sim, ok, st := m.best(q)
	runtime.KeepAlive(m.retain)
	return id, sim, ok, st, nil
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
	dst, st := m.all(dst, q)
	runtime.KeepAlive(m.retain)
	return dst, st, nil
}

// View returns the collection where it lies: the sets alias the container,
// so they are read-only and valid only while m is reachable — a caller ends
// its use of them with runtime.KeepAlive(m).
func (m *Mapped) View() ([][]uint32, error) {
	if err := m.ensureStruct(); err != nil {
		return nil, err
	}
	return m.sets, nil
}

// Sets copies the whole collection onto the heap (one shared token array).
// It is deliberately NOT cached: callers own the copy's lifetime.
func (m *Mapped) Sets() ([][]uint32, error) {
	view, err := m.View()
	if err != nil {
		return nil, err
	}
	sets := snapshot.CloneSets(view)
	runtime.KeepAlive(m.retain)
	return sets, nil
}

// Index moves the collection and the trie onto the heap — one bulk copy per
// array, nothing validated again — and returns the view that queries them
// there. The result references no container bytes — a hot shard load and
// cpindex.Load are both exactly this call.
func (m *Mapped) Index() (*Index, error) {
	sets, err := m.Sets()
	if err != nil {
		return nil, err
	}
	t := m.trie.clone()
	runtime.KeepAlive(m.retain)
	return &Index{
		kernel: &kernel{
			lambda:   m.lambda,
			opt:      m.opt,
			nsets:    m.nsets,
			signer:   m.signer,
			trie:     t,
			sets:     sets,
			counters: m.counters,
		},
		Nodes:  m.nodes,
		Leaves: m.leaves,
	}, nil
}
