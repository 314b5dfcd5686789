package chosenpath

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/minhash"
	"repro/internal/race"
	"repro/internal/tabhash"
)

// mapSplit is the reference Split is held to: a map from value to its
// group's members, visited in order of first appearance, with the groups of
// fewer than minSize members dropped. sigs is position-major.
func mapSplit(sigs []uint32, t int, node []uint32, pos, minSize int) []uint32 {
	groups := map[uint32][]uint32{}
	var order []uint32
	n := len(sigs) / t
	for _, id := range node {
		v := sigs[pos*n+int(id)]
		if _, seen := groups[v]; !seen {
			order = append(order, v)
		}
		groups[v] = append(groups[v], id)
	}
	var out []uint32
	for _, v := range order {
		if g := groups[v]; len(g) >= minSize {
			out = append(append(out, v, uint32(len(g))), g...)
		}
	}
	return out
}

// checkSplit splits node at pos behind a dst prefix and requires the prefix
// untouched and the appended groups to be mapSplit's. It reports with
// Errorf: the concurrent test calls it from worker goroutines.
func checkSplit(t *testing.T, s *Splitter, prefix, node []uint32, pos, minSize int) {
	t.Helper()
	got := s.Split(slices.Clone(prefix), node, pos, minSize)
	if !slices.Equal(got[:min(len(prefix), len(got))], prefix) {
		t.Errorf("node of %d, position %d, min %d: Split changed the %d-entry dst prefix", len(node), pos, minSize, len(prefix))
	} else if want := mapSplit(s.sigs, s.t, node, pos, minSize); !slices.Equal(got[len(prefix):], want) {
		t.Errorf("node of %d, position %d, min %d: Split appends %d entries, the map %d, or not the same ones",
			len(node), pos, minSize, len(got)-len(prefix), len(want))
	}
}

// TestSplitMatchesMapGrouping holds Split to the map it replaced, at min 1
// (the trie's) and 2 (the join's), with and without a dst prefix, on random
// nodes with 1, 2, n/2 and n distinct values at a position and on a sorted
// column of runs (the copy path) — four Splitters at a time over one shared
// matrix.
func TestSplitMatchesMapGrouping(t *testing.T) {
	const n, positions = 3000, 5
	rng := tabhash.NewSplitMix64(99)
	sigs := make([]uint32, n*positions)
	for i := 0; i < n; i++ { // position-major: position p of set i at p*n+i
		sigs[i] = 7                                   // one value
		sigs[n+i] = uint32(rng.Intn(2)) << 31         // two
		sigs[2*n+i] = uint32(rng.Intn(n/2)) * 0x10001 // about n/2
		sigs[3*n+i] = bits.Reverse32(uint32(i))       // n: all distinct
		sigs[4*n+i] = uint32(i / 7)                   // runs: sorted on every node
	}
	var nodes [][]uint32
	for _, size := range []int{0, 1, 2, 3, 10, 257, 1000, n} {
		for rep := 0; rep < 6; rep++ {
			var node []uint32
			for id := 0; id < n && len(node) < size; id++ {
				if rng.Intn(n) < size+size/4 || n-id <= size-len(node) {
					node = append(node, uint32(id))
				}
			}
			nodes = append(nodes, node)
		}
	}
	splitters := make([]Splitter, 4)
	for i := range splitters {
		splitters[i] = New(sigs, positions, 0.5)
	}
	prefixes := [][]uint32{nil, {1, 2, 3}}
	exec.RunChunks(len(splitters), len(nodes)*positions, 1, func(c *exec.Ctx, lo, hi int) {
		s := &splitters[c.Worker()]
		for i := lo; i < hi; i++ {
			node, pos := nodes[i/positions], i%positions
			for _, minSize := range []int{1, 2} {
				for _, prefix := range prefixes {
					checkSplit(t, s, prefix, node, pos, minSize)
				}
			}
		}
	})
}

// TestSplitAllocatesOnce: Split into a nil dst allocates exactly its groups
// once, on either path, and nothing when no group is large enough.
func TestSplitAllocatesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("under the race detector slices.Grow's make is not folded into its append, so it allocates twice")
	}
	s := New([]uint32{1, 5, 9, 5, 9, 9}, 1, 0.5)                 // one column
	all, sorted := []uint32{0, 1, 2, 3, 4, 5}, []uint32{0, 1, 3} // values 1 5 9 5 9 9, and 1 5 5
	for _, tc := range []struct {
		node    []uint32
		minSize int
		allocs  float64
	}{
		{all, 2, 1}, {all, 4, 0}, {sorted, 1, 1}, {sorted, 2, 1}, {sorted, 3, 0},
	} {
		if got := testing.AllocsPerRun(10, func() { s.Split(nil, tc.node, 0, tc.minSize) }); got != tc.allocs {
			t.Errorf("Split(nil, %v, 0, %d) allocates %v times, want %v", tc.node, tc.minSize, got, tc.allocs)
		}
	}
}

// TestPositionsDrawsOncePerPosition: Positions draws one Float64 per
// position in order and yields exactly those below 1/(λt), and a loop that
// stops early leaves the rest undrawn.
func TestPositionsDrawsOncePerPosition(t *testing.T) {
	const T, lambda = 128, 0.25
	s := New(nil, T, lambda)
	for seed := uint64(0); seed < 50; seed++ {
		ref := tabhash.NewSplitMix64(seed)
		var want []int
		for pos := 0; pos < T; pos++ {
			if ref.Float64() < 1/(lambda*T) {
				want = append(want, pos)
			}
		}
		rng := tabhash.NewSplitMix64(seed)
		got := slices.Collect(s.Positions(rng))
		if !slices.Equal(got, want) || *rng != *ref {
			t.Fatalf("seed %d: Positions yields %v, want %v, or drew a different number of values", seed, got, want)
		}
		if len(want) > 0 {
			rng = tabhash.NewSplitMix64(seed)
			for range s.Positions(rng) {
				break
			}
			ref = tabhash.NewSplitMix64(seed)
			for range want[0] + 1 {
				ref.Float64()
			}
			if *rng != *ref {
				t.Fatalf("seed %d: stopping at position %d drew past it", seed, want[0])
			}
		}
	}
}

// FuzzSplit holds Split to mapSplit on arbitrary columns: the keys fold into
// mod values when mod is non-zero, so most inputs repeat values, and sort
// puts them in order, so the runs path is taken. Each input is split twice on
// one Splitter, a prefix of the node and then the whole, behind a dst prefix
// of up to three entries, so a grouper left over from a call is reused.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), false)
	f.Add([]byte{1, 0, 0, 0}, uint8(0), uint8(1), false)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(5), uint8(9), false)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(7), uint8(4), true)
	f.Add(make([]byte, 200), uint8(0), uint8(17), true)
	f.Fuzz(func(t *testing.T, data []byte, mod, shape uint8, sort bool) {
		var sigs []uint32
		for b := data; len(b) >= 4; b = b[4:] {
			v := binary.LittleEndian.Uint32(b)
			if mod != 0 {
				v %= uint32(mod)
			}
			sigs = append(sigs, v)
		}
		if sort {
			slices.Sort(sigs)
		}
		node := make([]uint32, len(sigs))
		for i := range node {
			node[i] = uint32(i)
		}
		s := New(sigs, 1, 0.5)
		prefix := []uint32{7, 8, 9}[:shape%4]
		minSize := 1 + int(shape/4)%3
		checkSplit(t, &s, prefix, node[:min(int(shape/16), len(node))], 0, minSize)
		checkSplit(t, &s, prefix, node, 0, minSize)
	})
}

// BenchmarkSplit splits over the signatures of a 40 000-set ledger-shaped
// collection at T = 128 (minhash's SignAll, the matrix the join reads), at
// the join's minimum group size of 2: the root, all 40 000 ids, at every
// position in turn, and nodes of about 1 000 ascending ids drawn uniformly
// from it, the size of a node a few levels down. Each iteration takes the
// next of 64 such nodes and the next position, so that, as in the
// recursion, a split does not find the values it reads left in cache by
// the split before it. ns/member is the time per member per split: the
// value fetch and the grouping together.
func BenchmarkSplit(b *testing.B) {
	const n, T = 40000, 128
	sets := datagen.LedgerShape(false, n, 1)
	s := New(minhash.NewSigner(T, 42).SignAll(sets), T, 0.5)
	root := make([]uint32, n)
	for i := range root {
		root[i] = uint32(i)
	}
	rng := tabhash.NewSplitMix64(7)
	nodes := make([][]uint32, 64)
	for k := range nodes {
		for i := range n {
			if rng.Intn(n) < 1000 {
				nodes[k] = append(nodes[k], uint32(i))
			}
		}
	}
	for _, bc := range []struct {
		name  string
		nodes [][]uint32
	}{{"root", [][]uint32{root}}, {"node1000", nodes}} {
		b.Run(bc.name, func(b *testing.B) {
			var dst []uint32
			members := 0
			for i := 0; b.Loop(); i++ {
				node := bc.nodes[i%len(bc.nodes)]
				dst = s.Split(dst[:0], node, (i*37)%T, 2)
				members += len(node)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(members), "ns/member")
		})
	}
}
