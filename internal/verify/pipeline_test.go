package verify

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/intset"
	"repro/internal/sketch"
)

// TestNearMatchesHamming runs the stopping rule's pass over more points than
// one tile, at sketch widths padded to one and to two 8-word blocks and at
// bounds from 0 to past the widest distance, and requires exactly the ids
// fewer than bound bits from the center, in input order: on the loop picked
// at start-up, then on withinGo if that was another.
func TestNearMatchesHamming(t *testing.T) {
	testNearMatchesHamming(t)
	WithGoKernel(func() { t.Run("go", testNearMatchesHamming) })
}

func testNearMatchesHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2*blockRows + 7
	for _, words := range []int{1, 3, 8, 16} {
		center := make([]uint64, words)
		for i := range center {
			center[i] = rng.Uint64()
		}
		sketches := make([]uint64, 0, n*words)
		for range n {
			sk := slices.Clone(center)
			for _, bit := range rng.Perm(64 * words)[:rng.Intn(64*words+1)] {
				sk[bit/64] ^= 1 << (bit % 64)
			}
			sketches = append(sketches, sk...)
		}
		p := NewPipeline(make([][]uint32, n), 0.5, 1)
		p.Words, p.Sketches = words, sketches
		s := p.NewScratches()[0]
		var ids []uint32
		for id := range n {
			if rng.Intn(3) > 0 {
				ids = append(ids, uint32(id))
			}
		}
		for _, bound := range []int{0, 1, 17, 32 * words, 32*words + 1, 64 * words, 64*words + 1} {
			var want []uint32
			for _, id := range ids {
				if sketch.Hamming(sketches[int(id)*words:][:words], center) < bound {
					want = append(want, id)
				}
			}
			if got := s.Near(ids, center, bound, nil); !slices.Equal(got, want) {
				t.Errorf("W=%d bound %d: Near returns %d ids, %d are fewer bits away, or not the same ones", words, bound, len(got), len(want))
			}
		}
	}
}

// TestSequentialTestMatchesPerPairReference runs BruteForcePairs with the
// sequential test over more points than one tile, at sketch widths padded
// to one and to two 8-word blocks, and requires exactly the pairs a
// per-pair reference picks: the size window, then the bound of every
// prefix. Set i is {0, …, size-1}, so a pair inside the size window
// verifies and the result set is the candidate set. A third of the points
// put extra flips in their first word, and the bounds are tight there, so
// some pairs within the last bound fail a shorter prefix: the test is more
// than within. On the loop picked at start-up, then on withinGo if that was
// another.
func TestSequentialTestMatchesPerPairReference(t *testing.T) {
	testSequentialTest(t)
	WithGoKernel(func() { t.Run("go", testSequentialTest) })
}

func testSequentialTest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, lambda = 2*blockRows + 7, 0.5
	for _, words := range []int{1, 3, 8, 16} {
		sets := make([][]uint32, n)
		for i := range sets {
			sets[i] = make([]uint32, 1+rng.Intn(40))
			for v := range sets[i] {
				sets[i][v] = uint32(v)
			}
		}
		center := randomWords(rng, words)
		sketches := make([]uint64, 0, n*words)
		for range n {
			sk := slices.Clone(center)
			for _, bit := range rng.Perm(64 * words)[:rng.Intn(16*words+1)] {
				sk[bit/64] ^= 1 << (bit % 64)
			}
			if rng.Intn(3) == 0 {
				for _, bit := range rng.Perm(64)[:8+rng.Intn(16)] {
					sk[0] ^= 1 << bit
				}
			}
			sketches = append(sketches, sk...)
		}
		bounds := make([]int, words)
		for w := range bounds {
			bounds[w] = 6 + 10*w + rng.Intn(3)
		}
		if words > 1 {
			bounds[words-1] = 16 * words
		}

		var want []Pair
		prefixOnly := 0
		for a := range n {
			for b := a + 1; b < n; b++ {
				if lo, hi := intset.SizeWindow(len(sets[a]), lambda); len(sets[b]) < lo || len(sets[b]) > hi {
					continue
				}
				ok, d := true, 0
				for w := range words {
					d += bits.OnesCount64(sketches[a*words+w] ^ sketches[b*words+w])
					ok = ok && d <= bounds[w]
				}
				if ok {
					want = append(want, Pair{uint32(a), uint32(b)})
				} else if d <= bounds[words-1] {
					prefixOnly++
				}
			}
		}
		if words > 1 && prefixOnly == 0 {
			t.Fatalf("W=%d: no pair within the last bound fails a shorter prefix", words)
		}

		p := NewPipeline(sets, lambda, 1)
		p.UseSequentialTest(words, sketches, bounds)
		s := p.NewScratches()
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i)
		}
		s[0].BruteForcePairs(ids)
		got := p.Res.Pairs()
		slices.SortFunc(got, func(x, y Pair) int { return cmp.Compare(x.Key(), y.Key()) })
		if !slices.Equal(got, want) || s[0].Cand != int64(len(want)) {
			t.Errorf("W=%d: %d results from %d candidates, the reference picks %d pairs, or not the same ones",
				words, len(got), s[0].Cand, len(want))
		}
	}
}

// withinPath is one of within's loops: withinGo everywhere, and on amd64
// the assembly paths, which within_amd64_test.go adds, each with whether
// this CPU can run it and, if not, why.
type withinPath struct {
	name string
	f    func(row, rows []uint64, maxHam, head int, hits []int32) int
	skip string // empty where this CPU runs the path
}

var withinPaths = []withinPath{{name: "go", f: withinGo}}

// FuzzWithin feeds the sketch filter a row and its partners as raw words,
// one to three 8-word blocks wide, at any bound, and requires within — the
// loop picked at start-up — and every path this CPU can run to pick
// exactly the partners at most that many bits away. The seeds put partners
// one bit under, on and one bit over the bound, in groups of eight rows
// and a partial last group of one to seven.
func FuzzWithin(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i, maxHam := range []int{-1, 0, 1, 34, headCut - 1, headCut, 144, 511, 1000} {
		stride := 8 * (1 + i%3)
		words := randomWords(rng, stride)
		for k := range 30 + i%8 {
			partner := slices.Clone(words[:stride])
			for _, bit := range rng.Perm(64 * stride)[:min(64*stride, max(0, maxHam+k%3-1))] {
				partner[bit/64] ^= 1 << (bit % 64)
			}
			words = append(words, partner...)
		}
		raw := make([]byte, 0, 8*len(words))
		for _, w := range words {
			raw = binary.LittleEndian.AppendUint64(raw, w)
		}
		f.Add(raw, uint8(i), maxHam)
	}
	f.Fuzz(func(t *testing.T, raw []byte, blocks uint8, maxHam int) {
		stride := 8 * (1 + int(blocks)%3)
		words := make([]uint64, max(stride, len(raw)/8))
		for i := range len(raw) / 8 {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		row, rows := words[:stride], words[stride:]
		want := withinRef(row, rows, maxHam)
		if got := within(row, rows, maxHam, make([]int32, 0, len(rows)/stride)); !slices.Equal(got, want) {
			t.Fatalf("stride %d, maxHam %d: within picks %v, want %v", stride, maxHam, got, want)
		}
		hits := make([]int32, len(rows)/stride)
		for _, path := range withinPaths {
			if path.skip != "" {
				continue
			}
			if got := hits[:path.f(row, rows, maxHam, headBound(maxHam), hits)]; !slices.Equal(got, want) {
				t.Fatalf("stride %d, maxHam %d: %s picks %v, want %v", stride, maxHam, path.name, got, want)
			}
		}
	})
}

// BenchmarkWithin times the sketch filter's loop over a tile of 256 random
// 8-word rows, on each path this CPU can run, at the bound of λ 0.5 (144,
// no early exit) and of λ 0.9 (34, the exit after four words, which the
// AVX-512 path does not take); ns/row is per partner.
func BenchmarkWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	row, rows := randomWords(rng, 8), randomWords(rng, blockRows*8)
	hits := make([]int32, blockRows)
	for _, p := range withinPaths {
		if p.skip != "" {
			continue
		}
		for _, lambda := range []float64{0.5, 0.9} {
			maxHam := 64*8 - sketch.NewFilter(8, lambda, 0.05).MinAgree
			b.Run(fmt.Sprintf("%s/l%02.0f", p.name, 100*lambda), func(b *testing.B) {
				for range b.N {
					p.f(row, rows, maxHam, headBound(maxHam), hits)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockRows), "ns/row")
			})
		}
	}
}

// withinRef is within by definition: the rows at most maxHam bits from row
// by sketch.Hamming.
func withinRef(row, rows []uint64, maxHam int) []int32 {
	var want []int32
	for i := 0; (i+1)*len(row) <= len(rows); i++ {
		if sketch.Hamming(row, rows[i*len(row):][:len(row)]) <= maxHam {
			want = append(want, int32(i))
		}
	}
	return want
}

func randomWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}
