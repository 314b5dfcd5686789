package dataset

import (
	"slices"
	"testing"
)

// cleanByString is the Clean that hashing replaced: a string key of each
// set's little-endian token bytes in a map. It is the reference for
// TestCleanMatchesStringKeys.
func cleanByString(sets [][]uint32) [][]uint32 {
	seen := make(map[string]bool, len(sets))
	var out [][]uint32
	key := make([]byte, 0, 256)
	for _, set := range sets {
		if len(set) < 2 {
			continue
		}
		key = key[:0]
		for _, tok := range set {
			key = append(key, byte(tok), byte(tok>>8), byte(tok>>16), byte(tok>>24))
		}
		if k := string(key); !seen[k] {
			seen[k] = true
			out = append(out, set)
		}
	}
	return out
}

// TestCleanHashCollisions sends every set to one hash bucket, so each set
// is compared exactly with every survivor: the distinct sets must all
// survive, in input order, and every later copy must go.
func TestCleanHashCollisions(t *testing.T) {
	defer func(h func([]uint32) uint64) { setHash = h }(setHash)
	setHash = func([]uint32) uint64 { return 7 }

	ds := &Dataset{Sets: [][]uint32{
		{1, 2, 3},
		{4, 5},
		{1, 2, 3}, // copy of 0
		{9},       // too small
		{1, 2},
		{4, 5}, // copy of 1
		{1, 2, 3, 4},
		{1, 2}, // copy of 4
		{2, 3},
		{1, 2, 3}, // copy of 0
	}}
	want := [][]uint32{{1, 2, 3}, {4, 5}, {1, 2}, {1, 2, 3, 4}, {2, 3}}
	if removed := ds.Clean(); removed != 5 {
		t.Errorf("removed %d sets, want 5", removed)
	}
	if !slices.EqualFunc(ds.Sets, want, slices.Equal) {
		t.Fatalf("Clean kept %v, want %v", ds.Sets, want)
	}
}
