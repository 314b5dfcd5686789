// Package chosenpath expands a node of the Chosen Path Tree that CPSJoin
// streams and the search index of Christiani and Pagh (STOC 2017) stores:
// it samples positions, groups the node by minhash value and seeds the
// children. Stop rules, leaves, child order and scheduling are the caller's.
//
// The signature matrix is position-major (internal/prep's layout): a
// position's values over the collection are one contiguous column, and a
// node's ascending ids read it forward, where a row-major matrix cost one
// cache line per member per sampled position.
package chosenpath

import (
	"iter"
	"slices"

	"repro/internal/group"
	"repro/internal/tabhash"
)

// Splitter expands nodes over one signature matrix at one threshold. Its
// grouper is scratch: each goroutine needs a Splitter of its own.
type Splitter struct {
	sigs    []uint32 // t × n signatures, position-major
	t, n    int
	prob    float64 // a position's sampling probability, 1/(λt)
	grouper group.Grouper[uint32]
}

// New returns a Splitter over the position-major t × n matrix sigs (set i's
// value at position p is sigs[p*n+i]) at lambda.
func New(sigs []uint32, t int, lambda float64) Splitter {
	return Splitter{sigs: sigs, t: t, n: len(sigs) / t, prob: 1 / (lambda * float64(t))}
}

// Positions yields the positions a node samples, ascending, from one
// rng.Float64() per position (expected 1/λ positions, Section V-A.3).
func (s *Splitter) Positions(rng *tabhash.SplitMix64) iter.Seq[int] {
	return func(yield func(int) bool) {
		for pos := 0; pos < s.t; pos++ {
			if rng.Float64() < s.prob && !yield(pos) {
				return
			}
		}
	}
}

// ChildSeed derives the seed of the child of the ids valued v at pos: a
// function of the path alone, not of the order or goroutine of expansion.
func ChildSeed(seed uint64, pos int, v uint32) uint64 {
	return tabhash.DeriveSeed(seed, uint64(pos), uint64(v))
}

// Split groups node by the minhash value at pos and appends to dst the
// groups of at least minSize members as value, count, ids: groups in order
// of first appearance, ids in node order, growing dst once at most. The
// grouper numbers the values and a counting scatter moves the ids; a sorted
// column (a cluster's copies) is its runs, copied: hashing was a third slower.
func (s *Splitter) Split(dst, node []uint32, pos, minSize int) []uint32 {
	col, vals := s.sigs[pos*s.n:(pos+1)*s.n], s.grouper.Keys(len(node))
	for i, id := range node {
		vals[i] = col[id]
	}
	if slices.IsSorted(vals) {
		total := 0 // the first pass sizes the runs, the second copies them
		for pass := 0; pass < 2; pass++ {
			dst = slices.Grow(dst, total)
			for lo, hi := 0, 1; lo < len(vals); lo, hi = hi, hi+1 {
				for hi < len(vals) && vals[hi] == vals[lo] {
					hi++
				}
				if n := hi - lo; n >= minSize && pass == 0 {
					total += 2 + n
				} else if n >= minSize {
					dst = append(append(dst, vals[lo], uint32(n)), node[lo:hi]...)
				}
			}
		}
		return dst
	}
	nums, values, counts := s.grouper.Group(vals)
	total := 0
	for _, n := range counts {
		if int(n) >= minSize {
			total += 2 + int(n)
		}
	}
	if total == 0 {
		return dst
	}
	at := uint32(len(dst))
	dst = slices.Grow(dst, total)[:len(dst)+total]
	for i, n := range counts {
		counts[i] = 0 // from here on, the group's cursor into dst; 0: no room
		if int(n) >= minSize {
			dst[at], dst[at+1], counts[i] = values[i], n, at+2
			at += 2 + n
		}
	}
	for i, id := range node {
		if c := &counts[nums[i]]; *c != 0 {
			dst[*c] = id
			*c++
		}
	}
	return dst
}
