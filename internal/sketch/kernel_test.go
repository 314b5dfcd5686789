package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/intset"
	"repro/internal/race"
	"repro/internal/tabhash"
)

// refMaker is the per-function scalar loop the transposed kernel replaced,
// kept as the reference it must agree with bit for bit: one tabhash.Table32
// value hash and one tabhash.Table64 bit hash per sketch bit.
type refMaker struct {
	words  int
	minvs  []*tabhash.Table32
	bitfns []*tabhash.Table64
}

func newRefMaker(words int, seed uint64) *refMaker {
	nbits := 64 * words
	m := &refMaker{
		words:  words,
		minvs:  make([]*tabhash.Table32, nbits),
		bitfns: make([]*tabhash.Table64, nbits),
	}
	for i := 0; i < nbits; i++ {
		m.minvs[i] = tabhash.NewTable32(tabhash.Mix64((seed ^ 0xa5a5a5a5a5a5a5a5) + uint64(i)*2))
		m.bitfns[i] = tabhash.NewTable64(tabhash.Mix64((seed ^ 0x5a5a5a5a5a5a5a5a) + uint64(i)*2 + 1))
	}
	return m
}

func (m *refMaker) sketch(set []uint32) []uint64 {
	out := make([]uint64, m.words)
	for w := range out {
		for b := 0; b < 64; b++ {
			table := m.minvs[w*64+b]
			best := table.Hash(set[0])
			for _, tok := range set[1:] {
				if h := table.Hash(tok); h < best {
					best = h
				}
			}
			out[w] |= m.bitfns[w*64+b].Bit(best) << uint(b)
		}
	}
	return out
}

// goldenSets is a fixed collection (SplitMix64-drawn, so independent of any
// library's generator) with set sizes 1, 2, 10, 300 and 2000 over three
// token ranges: below 2^8 (one key byte varies), below 2^16 (two) and the
// full 32 bits with the top byte forced nonzero (all four).
func goldenSets() [][]uint32 {
	rng := tabhash.NewSplitMix64(0x601de2)
	var sets [][]uint32
	for _, universe := range []uint64{1 << 8, 1 << 16, 1 << 32} {
		for _, size := range []int{1, 2, 10, 300, 2000} {
			if uint64(size) > universe/2 {
				continue
			}
			seen := make(map[uint32]bool, size)
			set := make([]uint32, 0, size)
			for len(set) < size {
				tok := uint32(rng.Next() % universe)
				if universe == 1<<32 {
					tok |= 1 << 24
				}
				if !seen[tok] {
					seen[tok] = true
					set = append(set, tok)
				}
			}
			sets = append(sets, intset.Normalize(set))
		}
	}
	return sets
}

func digest(words []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSketches pins the sketches to the bytes the per-function loop
// produced at the commit before the transposed kernel (digests recorded
// there): the sketch is persisted in prep indexes and decides which pairs
// the joins report, so a kernel change must not move a single bit.
func TestGoldenSketches(t *testing.T) {
	sets := goldenSets()
	for _, tc := range []struct {
		words int
		want  string
	}{
		{1, "ffb3dec0dc751d3413c17ede971553929f9cc716448963f4128adf39517c3c77"},
		{8, "323ca60d2697c26565851f2a638a8e59557a306f10330e185a1b535799a19561"},
	} {
		if got := digest(NewMaker(tc.words, 42).SketchAll(sets)); got != tc.want {
			t.Errorf("words=%d: SketchAll digest %s, want %s", tc.words, got, tc.want)
		}
	}
}

// TestKernelMatchesReference: for random seeds, widths and sets, Sketch,
// SketchInto and SketchAll all produce exactly the reference loop's bits.
func TestKernelMatchesReference(t *testing.T) {
	rng := tabhash.NewSplitMix64(7)
	for trial := 0; trial < 12; trial++ {
		words := 1 + rng.Intn(9)
		seed := rng.Next()
		m, ref := NewMaker(words, seed), newRefMaker(words, seed)
		sets := make([][]uint32, 20)
		for i := range sets {
			size := 1 + rng.Intn(60)
			if i == 0 {
				size = 700
			}
			shift := uint(rng.Intn(25)) // universes from 2^8 to 2^32
			set := make([]uint32, size)
			for j := range set {
				set[j] = uint32(rng.Next()) >> shift
			}
			sets[i] = intset.Normalize(set)
		}
		all := m.SketchAll(sets)
		into := make([]uint64, words)
		for i, set := range sets {
			want := ref.sketch(set)
			m.SketchInto(set, into)
			got := m.Sketch(set)
			for w := range want {
				if got[w] != want[w] || into[w] != want[w] || all[i*words+w] != want[w] {
					t.Fatalf("trial %d (words=%d seed=%#x) set %d word %d: Sketch %#x SketchInto %#x SketchAll %#x, reference %#x",
						trial, words, seed, i, w, got[w], into[w], all[i*words+w], want[w])
				}
			}
		}
	}
}

// TestSketchIntoConcurrent shares one Maker between goroutines (as
// prep.BuildParallel does); run under -race it checks that SketchInto keeps
// no per-Maker state between calls beyond the pooled buffers.
func TestSketchIntoConcurrent(t *testing.T) {
	m := NewMaker(8, 11)
	sets := goldenSets()
	want := m.SketchAll(sets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]uint64, m.Words())
			for round := 0; round < 3; round++ {
				for i, set := range sets {
					m.SketchInto(set, out)
					for w := range out {
						if out[w] != want[i*m.Words()+w] {
							t.Errorf("set %d word %d: concurrent SketchInto %#x, sequential %#x", i, w, out[w], want[i*m.Words()+w])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSketchInto measures the kernel on the shapes of the perf
// ledger's join workloads (benchmark/gen.go): flat is join_flat's sets,
// skew is join_skew's size and token distributions, large is one set from
// the tail of skew, where the running minima rather than the table rows
// dominate. SketchInto must not allocate: it sits in prep's per-set loop.
func BenchmarkSketchInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	flat := make([][]uint32, 4096)
	for i := range flat {
		flat[i] = randomSet(rng, 10, 209)
	}
	zipf := rand.NewZipf(rng, 1.01, 1, 80000-1)
	skew := make([][]uint32, 4096)
	for i := range skew {
		size := min(2000, max(2, int(math.Round(5*math.Exp(1.3*rng.NormFloat64())))))
		set := make([]uint32, size)
		for j := range set {
			set[j] = uint32(zipf.Uint64())
		}
		skew[i] = intset.Normalize(set)
	}
	for _, bc := range []struct {
		name string
		sets [][]uint32
	}{
		{"flat", flat},
		{"skew", skew},
		{"large", [][]uint32{randomSet(rng, 1500, 80000)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMaker(8, 42)
			out := make([]uint64, m.Words())
			tokens := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := bc.sets[i%len(bc.sets)]
				m.SketchInto(set, out)
				tokens += len(set)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens), "ns/token")
			if allocs := testing.AllocsPerRun(100, func() { m.SketchInto(bc.sets[0], out) }); allocs != 0 && !race.Enabled {
				b.Errorf("SketchInto allocates %v times per call, want 0", allocs)
			}
		})
	}
}
