// Package stats computes recall and precision of a join result against a
// ground-truth result, the quality measures used throughout the paper's
// evaluation (approximate methods are run to >= 90% recall at 100%
// precision).
package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/verify"
)

// Recall returns |got ∩ truth| / |truth|; 1 if truth is empty.
func Recall(got, truth []verify.Pair) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[uint64]struct{}, len(got))
	for _, p := range got {
		set[p.Key()] = struct{}{}
	}
	hit := 0
	for _, p := range truth {
		if _, ok := set[p.Key()]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Precision returns |got ∩ truth| / |got|; 1 if got is empty.
func Precision(got, truth []verify.Pair) float64 {
	if len(got) == 0 {
		return 1
	}
	set := make(map[uint64]struct{}, len(truth))
	for _, p := range truth {
		set[p.Key()] = struct{}{}
	}
	hit := 0
	for _, p := range got {
		if _, ok := set[p.Key()]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(got))
}

// PairDigest is the SHA-256 of the sorted pair set, eight little-endian
// bytes a pair: what the golden tests pin a join's answer to.
func PairDigest(pairs []verify.Pair) string {
	pairs = slices.Clone(pairs)
	verify.SortPairs(pairs)
	h := sha256.New()
	var b [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(b[:4], p.A)
		binary.LittleEndian.PutUint32(b[4:], p.B)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EqualPairSets reports whether two results contain exactly the same pairs.
func EqualPairSets(a, b []verify.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint64]struct{}, len(a))
	for _, p := range a {
		set[p.Key()] = struct{}{}
	}
	for _, p := range b {
		if _, ok := set[p.Key()]; !ok {
			return false
		}
	}
	return true
}

// Missing returns the pairs of truth absent from got (the false negatives).
func Missing(got, truth []verify.Pair) []verify.Pair {
	set := make(map[uint64]struct{}, len(got))
	for _, p := range got {
		set[p.Key()] = struct{}{}
	}
	var out []verify.Pair
	for _, p := range truth {
		if _, ok := set[p.Key()]; !ok {
			out = append(out, p)
		}
	}
	return out
}
