// Package intset provides primitives on sets represented as strictly
// increasing slices of uint32 tokens.
//
// Every set similarity join in this repository ultimately reduces to
// computing (or bounding) intersection sizes of such sets, so these
// functions are the innermost loops of the whole system. They are written
// for predictable branch behaviour and zero allocation.
//
// The package is also the one place a threshold becomes integers. Every
// exact "similarity >= t" decision — the joins' verification and size
// filters, their prefix and positional bounds, brute force, search, the
// embedded threshold — uses the rule: the predicate
// float64(c)/float64(d) >= t, the division Jaccard and Containment
// themselves compute, and the integer bounds MinOverlap, MinShare and
// SizeWindow derived from it. So a pair exactly at the threshold is found
// by all of them or by none.
package intset

import (
	"math"
	"slices"
)

// IsSet reports whether s is strictly increasing (sorted, duplicate-free).
func IsSet(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Normalize sorts s and removes duplicates in place, returning the
// normalized slice. The input slice's backing array is reused.
func Normalize(s []uint32) []uint32 {
	if IsSet(s) {
		return s
	}
	slices.Sort(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Contains reports whether set s contains token x, by binary search.
func Contains(s []uint32, x uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Equal reports whether a and b are identical sets.
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IntersectSize returns |a ∩ b| using a linear merge, switching to a
// galloping search when the sizes are very unbalanced.
func IntersectSize(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	// Galloping pays off when one list is much longer than the other.
	if len(b) >= 32*len(a) {
		return gallopIntersectSize(a, b)
	}
	return mergeIntersectSize(a, b)
}

func mergeIntersectSize(a, b []uint32) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i], b[j]
		if ai == bj {
			n++
			i++
			j++
		} else if ai < bj {
			i++
		} else {
			j++
		}
	}
	return n
}

// gallopIntersectSize intersects a short list a against a long list b by
// exponential search.
func gallopIntersectSize(a, b []uint32) int {
	n := 0
	lo := 0
	for _, x := range a {
		// Exponential probe from lo.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo-1, hi].
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(b) && b[lo] == x {
			n++
			lo++
		}
		if lo >= len(b) {
			break
		}
	}
	return n
}

// IntersectSizeAtLeast returns |a ∩ b| and true when it is at least
// required. Otherwise it returns false as soon as the elements left in the
// merge can no longer close the gap, with a count below required. It is the
// one early-exit merge behind every exact threshold decision (JaccardAtLeast,
// ContainmentAtLeast), and required comes from the threshold rule
// (MinOverlap, MinShare).
func IntersectSizeAtLeast(a, b []uint32, required int) (int, bool) {
	if len(a) < required || len(b) < required {
		return 0, false
	}
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if n+min(len(a)-i, len(b)-j) < required {
			return n, false
		}
		ai, bj := a[i], b[j]
		if ai == bj {
			n++
			i++
			j++
		} else if ai < bj {
			i++
		} else {
			j++
		}
	}
	return n, n >= required
}

// Jaccard returns |a ∩ b| / |a ∪ b|, with Jaccard(∅, ∅) defined as 0.
func Jaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	in := IntersectSize(a, b)
	return float64(in) / float64(len(a)+len(b)-in)
}

// JaccardAtLeast reports whether J(a, b) >= lambda and, when it is,
// returns the exact similarity (the same value Jaccard would). Pairs that
// cannot reach lambda are rejected early — first by the size bound, then
// mid-merge as soon as the remaining elements cannot close the gap — so
// the common below-threshold candidate costs a fraction of a full merge.
// The decision is bit-identical to `Jaccard(a, b) >= lambda`: the cutoff is
// MinOverlap.
func JaccardAtLeast(a, b []uint32, lambda float64) (float64, bool) {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 0, 0 >= lambda
	}
	c, ok := IntersectSizeAtLeast(a, b, MinOverlap(la, lb, lambda))
	if !ok {
		return 0, false
	}
	return float64(c) / float64(la+lb-c), true
}

// Containment returns |q ∩ y| / |q|, the fraction of q's tokens present
// in y, with C(∅, y) defined as 0. Unlike Jaccard it is asymmetric: it
// measures how much of the query the candidate covers, regardless of how
// much larger the candidate is — the domain-search semantics of LSH
// Ensemble (Zhu et al., VLDB 2016).
func Containment(q, y []uint32) float64 {
	if len(q) == 0 {
		return 0
	}
	return float64(IntersectSize(q, y)) / float64(len(q))
}

// ContainmentAtLeast reports whether C(q, y) = |q ∩ y| / |q| >= t and,
// when it is, returns the exact containment (the same value Containment
// would), rejecting early like JaccardAtLeast. The decision is
// bit-identical to `Containment(q, y) >= t`: the cutoff is MinShare.
func ContainmentAtLeast(q, y []uint32, t float64) (float64, bool) {
	if len(q) == 0 {
		return 0, 0 >= t
	}
	c, ok := IntersectSizeAtLeast(q, y, MinShare(len(q), t))
	if !ok {
		return 0, false
	}
	return float64(c) / float64(len(q)), true
}

// The threshold rule. Whether a similarity reaches a threshold t is decided
// by the same float division the similarity itself computes —
// float64(c)/float64(d) >= t — and every integer bound a join or a filter
// uses is the smallest or largest integer that passes it. The division is
// correctly rounded, so it is monotone in c and in d, and a bound found by
// stepping the predicate from a close estimate is exact: nothing is
// rearranged into a product or a ratio of t that could round the other way
// at the boundary (0.8/1.8·63 is above 28, yet 28/35 >= 0.8).

// reaches is the predicate itself.
func reaches(c, d int, t float64) bool {
	return float64(c)/float64(d) >= t
}

// MinShare returns the smallest c in [0, d] with c/d >= t, or d+1 if there
// is none: the overlap a containment or Braun-Blanquet similarity over a
// denominator d needs, and the smallest partner size whose ratio to a set
// of size d reaches t.
func MinShare(d int, t float64) int {
	c := min(max(int(math.Ceil(t*float64(d))), 0), d+1)
	for c > 0 && reaches(c-1, d, t) {
		c--
	}
	for c <= d && !reaches(c, d, t) {
		c++
	}
	return c
}

// MinOverlap returns the smallest c in [0, min(la, lb)] with
// c/(la+lb−c) >= t — the overlap two sets of sizes la and lb need for their
// Jaccard similarity to reach t — or min(la, lb)+1 if there is none.
func MinOverlap(la, lb int, t float64) int {
	n, m := la+lb, min(la, lb)
	c := min(max(int(math.Ceil(t/(1+t)*float64(n))), 0), m+1)
	for c > 0 && reaches(c-1, n-c+1, t) {
		c--
	}
	for c <= m && !reaches(c, n-c, t) {
		c++
	}
	return c
}

// SizeWindow returns the partner sizes [lo, hi] whose ratio to size s,
// smaller over larger, reaches t: lo = MinShare(s, t), and hi is the
// largest p with s/p >= t. No similarity of two sets exceeds that ratio,
// so a partner outside the window cannot reach t. The window is empty
// (lo > hi) when s is 0; hi is math.MaxInt when t is too small to bound it.
func SizeWindow(s int, t float64) (lo, hi int) {
	lo = MinShare(s, t)
	h := float64(s) / t
	if t <= 0 || !(h < 1<<62) {
		return lo, math.MaxInt
	}
	hi = max(int(h), s)
	for reaches(s, hi+1, t) {
		hi++
	}
	for hi >= s && !reaches(s, hi, t) {
		hi--
	}
	return lo, hi
}
