package group

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzGroup holds Group, at both key widths, to a map kept here: every key's
// number is the order in which its value first appeared, the distinct keys
// are those values in that order, and the counts are their multiplicities.
// Each input is grouped twice on one grouper, a prefix and then the whole,
// so a table left over from a call (smaller, or larger and dirty) is reused.
// mod folds the keys into a small range when it is non-zero, so that most
// inputs repeat keys; the 64-bit keys also differ in their high words alone.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 0, 0, 0}, uint8(0), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(5), uint8(9))
	f.Add(make([]byte, 200), uint8(0), uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, mod, prefix uint8) {
		var k32 []uint32
		for b := data; len(b) >= 4; b = b[4:] {
			k := binary.LittleEndian.Uint32(b)
			if mod != 0 {
				k %= uint32(mod)
			}
			k32 = append(k32, k)
		}
		var k64 []uint64
		for b := data; len(b) >= 8; b = b[8:] {
			k := binary.LittleEndian.Uint64(b)
			if mod != 0 {
				k = (k%uint64(mod))<<32 | (k>>32)%2
			}
			k64 = append(k64, k)
		}
		var g32 Grouper[uint32]
		checkGroup(t, &g32, k32[:min(int(prefix), len(k32))])
		checkGroup(t, &g32, k32)
		var g64 Grouper[uint64]
		checkGroup(t, &g64, k64[:min(int(prefix), len(k64))])
		checkGroup(t, &g64, k64)
	})
}

// checkGroup groups keys through the Keys buffer and compares the result
// with a map's numbering of them.
func checkGroup[K Key](t *testing.T, g *Grouper[K], keys []K) {
	t.Helper()
	in := g.Keys(len(keys))
	copy(in, keys)
	nums, distinct, counts := g.Group(in)
	if len(nums) != len(keys) {
		t.Fatalf("%d keys: %d numbers", len(keys), len(nums))
	}
	number := map[K]uint32{}
	var wantDistinct []K
	var wantCounts []uint32
	for i, k := range keys {
		n, ok := number[k]
		if !ok {
			n = uint32(len(wantDistinct))
			number[k] = n
			wantDistinct = append(wantDistinct, k)
			wantCounts = append(wantCounts, 0)
		}
		wantCounts[n]++
		if nums[i] != n {
			t.Fatalf("%d keys: key %d (%#x) numbered %d, want %d", len(keys), i, k, nums[i], n)
		}
	}
	if !slices.Equal(distinct, wantDistinct) || !slices.Equal(counts, wantCounts) {
		t.Fatalf("%d keys: distinct %v counts %v, want distinct %v counts %v",
			len(keys), distinct, counts, wantDistinct, wantCounts)
	}
	if !slices.Equal(in, keys) {
		t.Fatalf("%d keys: Group modified its input", len(keys))
	}
}

// TestGroupReusesScratch: once a grouper has met a size, grouping as many
// keys again allocates nothing.
func TestGroupReusesScratch(t *testing.T) {
	var g Grouper[uint64]
	fill := func() {
		keys := g.Keys(5000)
		for i := range keys {
			keys[i] = uint64(i%700) << 40
		}
		g.Group(keys)
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("Group allocates %v per call at a size it has met, want 0", n)
	}
}
