package cpindex

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/snapshot"
)

// Mapped is the view of the kernel whose collection stays inside a
// snapshot container (typically an mmap'd file). Opening one costs only the
// meta section, a few dozen bytes, regardless of index size. The first touch
// checksums the trees and sets sections and runs decodeTrie and
// snapshot.ReadSets over them once. Neither copies: afterwards the kernel's
// trie is five typed views of the trees section and its sets are headers over
// the sets section's token region, so a query walks and verifies exactly as
// Index does, over the container's own bytes, and costs page cache plus 24 B
// of header per set.
//
// Who touches it when: Index (cpindex.Load, a hot shard load) and InPlace (a
// cold shard load) run the first touch at once and return a view that cannot
// fail; only AppendAll and AppendAllWithStats defer it to the first query,
// which is how the ledger's trace (benchmark/) times the first touch on its
// own. A best-match query runs on the validated view (InPlace or Index).
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
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	dst = m.all(sc, dst, q)
	runtime.KeepAlive(m.retain)
	return dst, sc.stats, nil
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

// InPlace runs the first touch and returns the validated view without copying
// it: an Index over m's own kernel, whose trie and sets lie in the container.
// It is valid only while the container is: a caller keeps the mapping m pins
// reachable and ends every use of the result with runtime.KeepAlive — a cold
// shard load is this call.
func (m *Mapped) InPlace() (*Index, error) {
	if err := m.ensureStruct(); err != nil {
		return nil, err
	}
	return &Index{kernel: m.kernel, Nodes: m.nodes, Leaves: m.leaves}, nil
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
