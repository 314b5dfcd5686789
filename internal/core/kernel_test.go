package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/prep"
	"repro/internal/sketch"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// recorder is a PairSink that remembers every pair the pipeline asks it
// about — the pairs that survived ownership, the size filter and the
// sketch filter — and claims to hold none of them, so each goes on to
// verification and is counted as a candidate.
type recorder struct {
	mu   sync.Mutex
	seen map[verify.Pair]int
}

func (r *recorder) Contains(a, b uint32) bool {
	r.mu.Lock()
	r.seen[verify.MakePair(a, b)]++
	r.mu.Unlock()
	return false
}
func (r *recorder) Add(a, b uint32) bool { return true }
func (r *recorder) Len() int             { return 0 }
func (r *recorder) Pairs() []verify.Pair { return nil }

// refCheckPair is the per-pair pipeline the block kernel replaced, kept as
// the reference the kernel must agree with: one pre-candidate, then
// ownership, Verifier.SizeCompatible, Filter.Accept, dedup, verification.
func refCheckPair(ts *taskState, f *sketch.Filter, a, b uint32) {
	j := ts.j
	ts.pre++
	if !j.crossPair(a, b) {
		return
	}
	if !j.verifier.SizeCompatible(len(j.sets[a]), len(j.sets[b])) {
		return
	}
	if f != nil && !f.Accept(j.sketches[int(a)*j.w:(int(a)+1)*j.w], j.sketches[int(b)*j.w:(int(b)+1)*j.w]) {
		return
	}
	if j.res.Contains(a, b) {
		return
	}
	ts.cand++
	if j.verifier.Verify(a, b) && j.res.Add(a, b) {
		j.tracker.Hit(a, b)
	}
}

// kernelCase is one brute-force call: all pairs within ids[:split] ∪
// ids[split:] when split is 0, else every point of ids[:split] against
// every point of ids[split:].
type kernelCase struct {
	name  string
	ids   []uint32
	split int
}

// kernelFixture is a hand-made collection in which every case owns its own
// range of ids, so a recorded pair names the case it came from. Sets are
// {0, …, size-1}: only their sizes matter to the filters.
type kernelFixture struct {
	words    int
	filter   *sketch.Filter // nil when words == 0
	maxHam   int
	sets     [][]uint32
	sketches []uint64
	cases    []kernelCase
	rng      *tabhash.SplitMix64
}

// add appends one block of points with the given sizes. Sketches are a base
// sketch per block with a number of flipped bits spread around maxHam, so
// that a good share of the pairs sits near the filter's threshold; rows 1
// and 2 are at distance exactly maxHam and maxHam+1 from row 0.
func (fx *kernelFixture) add(name string, sizes []int, splits ...int) {
	first := len(fx.sets)
	base := make([]uint64, fx.words)
	for i := range base {
		base[i] = fx.rng.Next()
	}
	for row, size := range sizes {
		set := make([]uint32, size)
		for i := range set {
			set[i] = uint32(i)
		}
		fx.sets = append(fx.sets, set)
		sk := slices.Clone(base)
		if fx.words > 0 {
			flips := fx.rng.Intn(2*fx.maxHam + 2)
			switch row {
			case 0:
				flips = 0
			case 1:
				flips = fx.maxHam
			case 2:
				flips = fx.maxHam + 1
			}
			for _, bit := range fx.perm(64 * fx.words)[:flips] {
				sk[bit/64] ^= 1 << (bit % 64)
			}
		}
		fx.sketches = append(fx.sketches, sk...)
	}
	ids := make([]uint32, len(sizes))
	for i := range ids {
		ids[i] = uint32(first + i)
	}
	for _, split := range append([]int{0}, splits...) {
		if split <= len(ids) {
			fx.cases = append(fx.cases, kernelCase{fmt.Sprintf("%s/split%d", name, split), ids, split})
		}
	}
}

func (fx *kernelFixture) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
		k := fx.rng.Intn(i + 1)
		p[i], p[k] = p[k], p[i]
	}
	return p
}

// sizes draws n set sizes: small ones as on the flat shape, and with heavy
// set a few in the thousands, which takes gather past its counting sort.
func (fx *kernelFixture) sizes(n int, heavy bool) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 2 + fx.rng.Intn(24)
		if heavy && fx.rng.Intn(8) == 0 {
			out[i] = 1 + fx.rng.Intn(3000)
		}
	}
	return out
}

// TestKernelMatchesPerPairReference runs brute force through the block
// kernel and through the per-pair reference on the same blocks and requires
// the same pre-candidate count, the same candidate count and the same
// surviving pairs, case by case: block sizes around Limit and the tile
// size, equal sizes, sizes exactly on the edge of the size window (which
// pins the float predicate), every sketch width including none, sketches
// exactly at and one bit beyond the filter's threshold, and an R-S
// ownership split. The kernel side runs on four workers sharing the joiner,
// each on its own taskState, which is what -race is pointed at.
func TestKernelMatchesPerPairReference(t *testing.T) {
	const limit = 250
	for _, lambda := range []float64{0.5, 0.9} {
		for _, words := range []int{0, 1, 3, 8} {
			for _, rs := range []bool{false, true} {
				t.Run(fmt.Sprintf("l%02.0f/w%d/rs=%v", 100*lambda, words, rs), func(t *testing.T) {
					fx := &kernelFixture{words: words, rng: tabhash.NewSplitMix64(uint64(words) + 17)}
					if words > 0 {
						fx.filter = sketch.NewFilter(words, lambda, 0.05)
						fx.maxHam = 64*words - fx.filter.MinAgree
					}
					for _, n := range []int{0, 1, 2, 3, limit, limit + 1, blockRows, blockRows + 1, 3 * limit} {
						fx.add(fmt.Sprintf("flat%d", n), fx.sizes(n, false), 1, n/3)
						fx.add(fmt.Sprintf("heavy%d", n), fx.sizes(n, true), 1, n/3)
					}
					fx.add("equal", slices.Repeat([]int{7}, 300), 1, 100)
					// 5 and 10 at λ = 0.5, 9 and 10 at λ = 0.9: compatible,
					// with equality in SizeCompatible; one more is not.
					edge := []int{5, 10, 11, 9, 10, 4, 20, 21, 19, 18, 2, 1, 3}
					fx.add("edge", slices.Concat(edge, edge, edge), 1, 13)

					owners := []uint8(nil)
					if rs {
						owners = make([]uint8, len(fx.sets))
						for i := range owners {
							owners[i] = uint8(fx.rng.Intn(2))
						}
					}
					ix := &prep.Index{Sets: fx.sets, T: 1, Words: words, Sigs: make([]uint32, len(fx.sets)), Sketches: fx.sketches}
					newSide := func(workers int) (*joiner, *recorder) {
						j := newJoiner(fx.sets, owners, lambda, &Options{Workers: workers}, ix)
						rec := &recorder{seen: map[verify.Pair]int{}}
						j.res = rec
						j.states = make([]*taskState, workers)
						for i := range j.states {
							j.states[i] = j.newTaskState()
						}
						return j, rec
					}
					if j, _ := newSide(1); j.w != words || j.maxHam != fx.maxHam {
						t.Fatalf("joiner has w=%d maxHam=%d, fixture %d, %d", j.w, j.maxHam, words, fx.maxHam)
					}

					type counts struct{ pre, cand int64 }
					want := make([]counts, len(fx.cases))
					ref, refRec := newSide(1)
					for ci, c := range fx.cases {
						ts := ref.states[0]
						ts.pre, ts.cand = 0, 0
						a, b := c.ids[:c.split], c.ids[c.split:]
						if c.split == 0 {
							for i := range b {
								for k := i + 1; k < len(b); k++ {
									refCheckPair(ts, fx.filter, b[i], b[k])
								}
							}
						}
						for _, x := range a {
							for _, y := range b {
								refCheckPair(ts, fx.filter, x, y)
							}
						}
						want[ci] = counts{ts.pre, ts.cand}
					}

					got := make([]counts, len(fx.cases))
					kern, kernRec := newSide(4)
					exec.RunChunks(4, len(fx.cases), 1, func(c *exec.Ctx, lo, hi int) {
						ts := kern.states[c.Worker()]
						for ci := lo; ci < hi; ci++ {
							ts.pre, ts.cand = 0, 0
							if c := fx.cases[ci]; c.split == 0 {
								ts.bruteForcePairs(c.ids)
							} else {
								ts.bruteForcePoints(c.ids[:c.split], c.ids[c.split:])
							}
							got[ci] = counts{ts.pre, ts.cand}
						}
					})

					for ci, c := range fx.cases {
						if got[ci] != want[ci] {
							t.Errorf("%s: kernel counted %+v, reference %+v", c.name, got[ci], want[ci])
						}
					}
					if !maps.Equal(kernRec.seen, refRec.seen) {
						t.Errorf("%d distinct pairs survive in the kernel, %d in the reference, or not equally often", len(kernRec.seen), len(refRec.seen))
						shown := 0
						for _, p := range slices.Concat(slices.Collect(maps.Keys(refRec.seen)), slices.Collect(maps.Keys(kernRec.seen))) {
							if kernRec.seen[p] != refRec.seen[p] && shown < 5 {
								shown++
								t.Errorf("pair %v (sizes %d, %d): %d times in the kernel, %d in the reference",
									p, len(fx.sets[p.A]), len(fx.sets[p.B]), kernRec.seen[p], refRec.seen[p])
							}
						}
					}
					if len(refRec.seen) == 0 {
						t.Error("no pair survives the filters: the case compares nothing")
					}
					if words > 0 {
						edge := 0
						for p := range refRec.seen {
							a, b := fx.sketches[int(p.A)*words:][:words], fx.sketches[int(p.B)*words:][:words]
							if sketch.Hamming(a, b) == fx.maxHam {
								edge++
							}
						}
						if edge == 0 {
							t.Error("no surviving pair sits exactly on the sketch threshold")
						}
					}
				})
			}
		}
	}
}

// TestSplitMatchesMapGrouping compares split's children with the buckets of
// the map it replaced, as sets of (value, ascending ids), on random nodes
// with 1, 2, n/2 and n distinct values at the position — four workers at a
// time on one shared joiner.
func TestSplitMatchesMapGrouping(t *testing.T) {
	const n, positions = 3000, 4
	rng := tabhash.NewSplitMix64(99)
	sets := make([][]uint32, n)
	sigs := make([]uint32, n*positions)
	for i := range sets {
		sets[i] = []uint32{1, 2}
		sigs[i*positions] = 7                                 // one value
		sigs[i*positions+1] = uint32(rng.Intn(2)) << 31       // two
		sigs[i*positions+2] = uint32(rng.Intn(n/2)) * 0x10001 // about n/2
		sigs[i*positions+3] = bits.Reverse32(uint32(i))       // n: all distinct
	}
	ix := &prep.Index{Sets: sets, T: positions, Sigs: sigs}
	j := newJoiner(sets, nil, 0.5, &Options{Workers: 4}, ix)
	j.states = make([]*taskState, 4)
	for i := range j.states {
		j.states[i] = j.newTaskState()
	}
	var nodes [][]uint32
	for _, size := range []int{2, 3, 10, 257, 1000, n} {
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
	exec.RunChunks(4, len(nodes)*positions, 1, func(c *exec.Ctx, lo, hi int) {
		ts := j.states[c.Worker()]
		for i := lo; i < hi; i++ {
			node, pos := nodes[i/positions], i%positions
			want := map[uint32][]uint32{}
			for _, id := range node {
				v := sigs[int(id)*positions+pos]
				want[v] = append(want[v], id)
			}
			maps.DeleteFunc(want, func(_ uint32, ids []uint32) bool { return len(ids) < 2 })
			got := map[uint32][]uint32{}
			for kids := ts.split(node, pos); len(kids) > 0; {
				v, cnt := kids[0], int(kids[1])
				if _, dup := got[v]; dup || cnt < 2 {
					t.Errorf("node of %d, position %d: value %d emitted twice or with %d members", len(node), pos, v, cnt)
				}
				got[v] = kids[2 : 2+cnt]
				kids = kids[2+cnt:]
			}
			if !maps.EqualFunc(got, want, slices.Equal[[]uint32]) {
				t.Errorf("node of %d, position %d: split yields %d children, the map %d, or their members differ", len(node), pos, len(got), len(want))
			}
		}
	})
}
