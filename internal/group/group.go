// Package group numbers keys in order of first appearance through one
// reusable open-addressing table: the grouping step of CPSJoin's split and
// literal Algorithm 2, the search trie's builder and MinHash LSH's buckets.
package group

import (
	"math/bits"
	"slices"
)

// Key is a key type a Grouper numbers.
type Key interface{ ~uint32 | ~uint64 }

// Grouper numbers keys; the zero value is ready to use. A call on no more
// keys than an earlier one allocates nothing. Not safe for concurrent use.
type Grouper[K Key] struct {
	table          []uint32 // a key's number plus one, 0 in an empty slot
	keys, distinct []K
	nums, counts   []uint32
}

// Keys returns a buffer of n keys to fill and pass to Group, valid until
// the next call to Keys.
func (g *Grouper[K]) Keys(n int) []K {
	g.keys = slices.Grow(g.keys[:0], n)[:n]
	return g.keys
}

// Column returns column col of the rows of m, a row-major matrix of the
// given width, in a Keys buffer. The loop does nothing but fetch: each key
// is a cache miss, and this way many of them are in flight at once.
func (g *Grouper[K]) Column(m []K, width, col int, rows []uint32) []K {
	keys := g.Keys(len(rows))
	for i, r := range rows {
		keys[i] = m[int(r)*width+col]
	}
	return keys
}

// Group numbers keys in order of first appearance: distinct[j] is the j-th
// distinct key, counts[j] the number of keys equal to it, and nums[i] the
// number of keys[i]. The slices are scratch, valid until the next call; the
// caller may overwrite them (counts as scatter cursors, say).
func (g *Grouper[K]) Group(keys []K) (nums []uint32, distinct []K, counts []uint32) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	lg := bits.Len(uint(2*len(keys) - 1)) // a table of 2^lg >= 2·len(keys) slots
	if len(g.table) < 1<<lg {
		// Outputs sized for every call this table admits: no append grows them.
		g.table, g.nums = make([]uint32, 1<<lg), make([]uint32, 1<<lg/2)
		g.distinct, g.counts = make([]K, 0, 1<<lg/2), make([]uint32, 0, 1<<lg/2)
	}
	table, mask := g.table[:1<<lg], uint32(1)<<lg-1
	clear(table)
	nums, distinct, counts = g.nums[:len(keys)], g.distinct[:0], g.counts[:0]
	for i, k := range keys {
		// Keys are often small and dense (tokens): fold the high word in,
		// then hash multiplicatively.
		x := uint64(k)
		h := (uint32(x>>32)*0x85ebca6b ^ uint32(x)) * 0x9e3779b1 >> (32 - lg)
		for table[h] != 0 && distinct[table[h]-1] != k {
			h = (h + 1) & mask
		}
		if table[h] == 0 {
			distinct, counts = append(distinct, k), append(counts, 0)
			table[h] = uint32(len(distinct))
		}
		nums[i] = table[h] - 1
		counts[nums[i]]++
	}
	g.nums, g.distinct, g.counts = nums, distinct, counts
	return nums, distinct, counts
}
