package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/intset"
	"repro/internal/prep"
	"repro/internal/sketch"
	"repro/internal/tabhash"
	"repro/internal/verify"
)

// kernelWorker is one worker of the kernel test: a copy of the pipeline —
// sharing its read-only arrays with every other copy — whose verifier and
// result set are replaced case by case, and the scratch bound to the copy.
type kernelWorker struct {
	p *verify.Pipeline
	s *verify.Scratch

	headOver int // reference pairs over MaxHam within their first four words
}

func newKernelWorker(shared *verify.Pipeline) *kernelWorker {
	p := *shared
	return &kernelWorker{p: &p, s: p.NewScratches()[0]}
}

// refCheckPair is the per-pair pipeline the block kernel replaced, kept as
// the reference the kernel must agree with: one pre-candidate, then
// ownership, the size window, Filter.Accept, dedup, verification.
func refCheckPair(w *kernelWorker, f *sketch.Filter, a, b uint32) {
	p, s := w.p, w.s
	s.Pre++
	if p.Owners != nil && p.Owners[a] == p.Owners[b] {
		return
	}
	if lo, hi := intset.SizeWindow(int(p.Sizes[a]), p.Lambda); int(p.Sizes[b]) < lo || int(p.Sizes[b]) > hi {
		return
	}
	if f != nil {
		x, y := p.Sketches[int(a)*p.Words:][:p.Words], p.Sketches[int(b)*p.Words:][:p.Words]
		if head := min(p.Words, 4); sketch.Hamming(x[:head], y[:head]) > p.MaxHam {
			w.headOver++
		}
		if !f.Accept(x, y) {
			return
		}
	}
	if p.Res.Contains(a, b) {
		return
	}
	s.Cand++
	if p.Verifier.Verify(a, b) && p.Res.Add(a, b) {
		p.Tracker.Hit(a, b)
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

// kernelFixture is a hand-made collection of blocks of points, each block
// the ids of a few cases. Sets are {0, …, size-1}: only their sizes matter
// to the filters.
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
// and 2 are at distance exactly maxHam and maxHam+1 from row 0, row 3 at
// maxHam with every flip in the first four words (as far as they hold
// them), and every fourth row from then on has half its bits flipped, as
// an unrelated sketch would, which the filter's exit after four words
// rejects whenever it is taken.
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
			flips, span := fx.rng.Intn(2*fx.maxHam+2), 64*fx.words
			switch {
			case row == 0:
				flips = 0
			case row == 1:
				flips = fx.maxHam
			case row == 2:
				flips = fx.maxHam + 1
			case row == 3:
				span = 64 * min(fx.words, 4)
				flips = min(fx.maxHam, span)
			case row%4 == 3:
				flips = 32 * fx.words
			}
			for _, bit := range fx.perm(span)[:flips] {
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

// outcome is what one brute-force call leaves behind: its counters and the
// pairs it added to a result set of its own, sorted.
type outcome struct {
	pre, cand int64
	pairs     []verify.Pair
}

// run gives the worker a fresh result set and the given verifier, runs f
// and returns what it left behind.
func (w *kernelWorker) run(v *verify.Verifier, f func()) outcome {
	w.p.Verifier, w.p.Res = v, verify.NewResultSet(1)
	w.s.Pre, w.s.Cand = 0, 0
	f()
	pairs := w.p.Res.Pairs()
	slices.SortFunc(pairs, func(a, b verify.Pair) int { return cmp.Compare(a.Key(), b.Key()) })
	return outcome{w.s.Pre, w.s.Cand, pairs}
}

// TestKernelMatchesPerPairReference runs brute force through the block
// kernel and through the per-pair reference on the same blocks and requires
// the same pre-candidate count, the same candidate count and the same
// surviving pairs, case by case: block sizes around Limit and the tile
// size, equal sizes, sizes exactly on the edge of the size window (which
// pins the float predicate), sketch widths from none through one and two
// 8-word blocks, padded or not, thresholds on both sides of where the kernel
// exits after four words (MaxHam 144 and 117 at λ 0.5 and 0.6, 90 and 34 at
// 0.7 and 0.9, at 8 words), sketches exactly at and one bit beyond the
// filter's threshold, at it within the first four words, and half a sketch
// apart, and an R-S ownership split. Every case runs twice. Under a verifier that accepts
// everything each survivor enters the case's result set, which names the
// survivors; under one that rejects everything the set stays empty, no
// lookup ever hits, and the candidate count is the number of times a
// survivor was looked at — so a pair the kernel visited twice shows. The
// kernel side runs on four workers sharing the pipeline's arrays, each on
// its own Scratch, which is what -race is pointed at. It runs on the
// sketch filter's loop picked at start-up, then on the portable one if that
// was another (verify.WithGoKernel).
func TestKernelMatchesPerPairReference(t *testing.T) {
	testKernelMatchesPerPairReference(t)
	verify.WithGoKernel(func() { t.Run("go", testKernelMatchesPerPairReference) })
}

func testKernelMatchesPerPairReference(t *testing.T) {
	const limit, blockRows = 250, 256 // CPSJoin's default Limit, the kernel's tile
	for _, lambda := range []float64{0.5, 0.6, 0.7, 0.9} {
		for _, words := range []int{0, 1, 2, 3, 4, 8, 16} {
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
					// with equality in the size window; one more is not.
					edge := []int{5, 10, 11, 9, 10, 4, 20, 21, 19, 18, 2, 1, 3}
					fx.add("edge", slices.Concat(edge, edge, edge), 1, 13)

					p := verify.NewPipeline(fx.sets, lambda, 4)
					if words > 0 {
						p.UseSketches(words, fx.sketches, 0.05)
						if p.MaxHam != fx.maxHam {
							t.Fatalf("UseSketches derives MaxHam %d, the filter accepts up to %d", p.MaxHam, fx.maxHam)
						}
					}
					if rs {
						p.Owners = make([]uint8, len(fx.sets))
						for i := range p.Owners {
							p.Owners[i] = uint8(fx.rng.Intn(2))
						}
					}
					// Verification sees one-token sets: all {0}, Jaccard 1,
					// or {id}, Jaccard 0. The filters read Sizes and
					// Sketches only.
					all, none := make([][]uint32, len(fx.sets)), make([][]uint32, len(fx.sets))
					for i := range all {
						all[i], none[i] = []uint32{0}, []uint32{uint32(i)}
					}
					for _, v := range []*verify.Verifier{verify.NewVerifier(all, lambda), verify.NewVerifier(none, lambda)} {
						accepts := v.Verify(0, 1)
						ref := newKernelWorker(p)
						want := make([]outcome, len(fx.cases))
						for ci, c := range fx.cases {
							want[ci] = ref.run(v, func() {
								a, b := c.ids[:c.split], c.ids[c.split:]
								if c.split == 0 {
									for i := range b {
										for k := i + 1; k < len(b); k++ {
											refCheckPair(ref, fx.filter, b[i], b[k])
										}
									}
								}
								for _, x := range a {
									for _, y := range b {
										refCheckPair(ref, fx.filter, x, y)
									}
								}
							})
						}

						got := make([]outcome, len(fx.cases))
						kern := []*kernelWorker{newKernelWorker(p), newKernelWorker(p), newKernelWorker(p), newKernelWorker(p)}
						exec.RunChunks(len(kern), len(fx.cases), 1, func(ctx *exec.Ctx, lo, hi int) {
							w := kern[ctx.Worker()]
							for ci := lo; ci < hi; ci++ {
								c := fx.cases[ci]
								got[ci] = w.run(v, func() {
									if c.split == 0 {
										w.s.BruteForcePairs(c.ids)
									} else {
										w.s.BruteForcePoints(c.ids[:c.split], c.ids[c.split:])
									}
								})
							}
						})

						survivors, onEdge := 0, 0
						for ci, c := range fx.cases {
							g, w := got[ci], want[ci]
							if g.pre != w.pre || g.cand != w.cand {
								t.Errorf("%s (accepts=%v): kernel counted pre=%d cand=%d, reference pre=%d cand=%d", c.name, accepts, g.pre, g.cand, w.pre, w.cand)
							}
							if !slices.Equal(g.pairs, w.pairs) {
								t.Errorf("%s: %d pairs survive in the kernel, %d in the reference, or not the same ones", c.name, len(g.pairs), len(w.pairs))
							}
							if accepts && int64(len(w.pairs)) != w.cand {
								t.Errorf("%s: reference verified %d candidates and kept %d", c.name, w.cand, len(w.pairs))
							}
							survivors += len(w.pairs)
							for _, pr := range w.pairs {
								if words > 0 && sketch.Hamming(fx.sketches[int(pr.A)*words:][:words], fx.sketches[int(pr.B)*words:][:words]) == fx.maxHam {
									onEdge++
								}
							}
						}
						if !accepts {
							if survivors != 0 {
								t.Errorf("%d pairs verified by a verifier that rejects everything", survivors)
							}
							continue
						}
						if survivors == 0 {
							t.Error("no pair survives the filters: the case compares nothing")
						}
						if words > 0 && fx.maxHam < 64*min(words, 4) && ref.headOver == 0 {
							t.Error("no pair is over the threshold within its first four words: the early exit rejects nothing")
						}
						if words > 0 && onEdge == 0 {
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
		j.states[i] = &taskState{j: j}
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
