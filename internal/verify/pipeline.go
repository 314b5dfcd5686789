package verify

import (
	"math/bits"
	"slices"

	"repro/internal/intset"
	"repro/internal/sketch"
)

// Pipeline is the candidate pipeline that finishes every subproblem of the
// approximate joins: BRUTEFORCEPAIRS and BRUTEFORCEPOINT of the paper's
// Algorithm 2, which its MinHash comparator (Algorithm 3) runs on every
// bucket as well. A pair goes through the size filter, the 1-bit minwise
// sketch filter (Section V-A.2), ownership, the result-set lookup and exact
// verification, in that order, so only survivors of the two cheap filters
// ever reach a lock or the sets themselves.
//
// Both loops run on memory gathered for them instead of chasing ids across
// the collection: a Scratch copies the sizes and sketches of up to blockRows
// points into contiguous blocks, orders each block by size, so that the size
// filter is one window per row rather than a branch per pair (the standard
// trick of the exact joins the paper benchmarks against, Mann, Augsten and
// Bouros, PVLDB 2016), and runs the sketch filter over the window as one
// unrolled XOR/popcount block per pair with a single comparison at its end
// (within) — on amd64 in assembly, eight rows at a time with AVX-512's
// VPOPCNTQ or one row at a time with POPCNT, picked once at start-up. The
// order of work differs from a per-pair formulation; which pairs are
// looked at and which survive do not (TestKernelMatchesPerPairReference,
// on each path).
//
// BayesLSH-lite's sequential sketch test (UseSequentialTest) is a refinement
// of the same filter: within applies its widest bound, and compare checks
// only within's hits against the bound of every shorter prefix, word by word,
// before they go on.
//
// A Pipeline is the half all workers share, read-only while they run apart
// from the result set and the tracker, which are safe for concurrent use;
// the caller calls UseSketches or UseSequentialTest and sets Owners and
// Tracker after NewPipeline and before Repeat, the repetition loop that runs
// the join's workers on it.
type Pipeline struct {
	Lambda float64
	Sizes  []uint32 // len(sets[i]), so that gathering a block never touches sets

	// window[s] is the partner sizes [lo, end) of a set of size s that pass
	// the size filter: intset.SizeWindow at Lambda, cut at the largest size.
	window [][2]uint32

	// Words is the sketch width in 64-bit words, Sketches the flattened
	// n × Words matrix; a pair whose sketches are further apart than MaxHam
	// bits is rejected — sketch.Filter.Accept's decision. UseSketches or
	// UseSequentialTest sets all three; all zero with the sketch filter off.
	Words    int
	Sketches []uint64
	MaxHam   int

	// prefix[w-1] is the most bits a pair's first w sketch words may differ
	// in under the sequential test, for every w short of Words (MaxHam is
	// the bound over all of them); nil without the test.
	prefix []int

	// Owners restricts an R-S join to pairs of different owners; nil for a
	// self-join.
	Owners []uint8

	Verifier *Verifier
	Res      *ResultSet
	Tracker  *RecallTracker // nil without a recall target

	workers int // the join's worker count: Repeat runs on that many
}

// NewPipeline returns the pipeline of a join over sets at threshold lambda
// run by the given number of workers, with the sketch filter off.
func NewPipeline(sets [][]uint32, lambda float64, workers int) *Pipeline {
	p := &Pipeline{
		Lambda:   lambda,
		Sizes:    make([]uint32, len(sets)),
		Verifier: NewVerifier(sets, lambda),
		Res:      NewResultSet(workers),
		workers:  workers,
	}
	largest := 0
	for i, set := range sets {
		p.Sizes[i] = uint32(len(set))
		largest = max(largest, len(set))
	}
	p.window = make([][2]uint32, largest+1)
	for size := range p.window {
		lo, hi := intset.SizeWindow(size, lambda)
		p.window[size] = [2]uint32{uint32(lo), uint32(min(hi, largest) + 1)}
	}
	return p
}

// UseSketches turns the sketch filter on over the given n × words matrix,
// calibrated so that a pair at similarity λ is rejected with probability at
// most delta (sketch.NewFilter): MaxHam = 64·words − MinAgree. It is the one
// place a join derives MaxHam.
func (p *Pipeline) UseSketches(words int, sketches []uint64, delta float64) {
	p.Words, p.Sketches = words, sketches
	p.MaxHam = 64*words - sketch.NewFilter(words, p.Lambda, delta).MinAgree
}

// UseSequentialTest turns on a sequential sketch test over the given n ×
// words matrix: a pair passes when, for every w, its first w words differ in
// at most bounds[w-1] bits. MaxHam is the last bound — every pair that passes
// the test passes it, so within runs as for UseSketches — and the rest are
// checked on within's hits only (sequential).
func (p *Pipeline) UseSequentialTest(words int, sketches []uint64, bounds []int) {
	p.Words, p.Sketches = words, sketches
	p.MaxHam, p.prefix = bounds[words-1], bounds[:words-1]
}

// sequential reports whether sketch rows a and b, a pair within MaxHam, pass
// the rest of the sequential test: their distance, summed word by word,
// stays within every shorter prefix's bound.
func (p *Pipeline) sequential(a, b []uint64) bool {
	d := 0
	for w, most := range p.prefix {
		d += bits.OnesCount64(a[w] ^ b[w])
		if d > most {
			return false
		}
	}
	return true
}

// blockRows is the most points the kernel gathers at a time: a whole node at
// CPSJoin's default Limit, 18 KB with 8-word sketches, so the block a row is
// compared against stays in L1. Larger inputs go tile by tile.
const blockRows = 256

// block is the kernel's working copy of up to blockRows points, ascending
// in keys[p] = size<<32 | id, with row p of sk (stride words) their sketch,
// zero-padded: with sketches off every pair is at distance 0.
type block struct {
	keys []uint64
	sk   []uint64
}

// Scratch is one worker's half of the pipeline: its share of the candidate
// counters (Repeat sums them when the join ends) and the gathered
// blocks. A worker runs one task at a time and tasks reach their Scratch
// through exec.Ctx.Worker, so nothing here is locked, and nothing here is
// live across calls.
type Scratch struct {
	p         *Pipeline
	Pre, Cand int64
	stride    int // words per gathered row: Words rounded up to whole 8-word blocks
	a, b      block
	center    []uint64              // Near: the center sketch, one gathered row
	hits      [blockRows]int32      // within: the rows of one scan that pass
	count     [4 * blockRows]uint32 // gather: counting sort by size
}

// NewScratches returns one scratch per worker of the join.
func (p *Pipeline) NewScratches() []*Scratch {
	out := make([]*Scratch, p.workers)
	for i := range out {
		s := &Scratch{p: p, stride: 8 * max(1, (p.Words+7)/8)}
		s.center = make([]uint64, s.stride)
		for _, b := range []*block{&s.a, &s.b} {
			b.keys = make([]uint64, 0, blockRows)
			b.sk = make([]uint64, blockRows*s.stride)
		}
		out[i] = s
	}
	return out
}

// candidate finishes the pipeline for a pair that passed the size and sketch
// filters: ownership, dedup, exact verification. Two workers can race past
// the dedup check and verify the same pair; ResultSet.Add keeps the result
// set exact, so only the Candidates counter can drift by the handful of
// double-verified pairs.
func (s *Scratch) candidate(a, b uint32) {
	p := s.p
	if (p.Owners != nil && p.Owners[a] == p.Owners[b]) || p.Res.Contains(a, b) {
		return
	}
	s.Cand++
	if p.Verifier.Verify(a, b) && p.Res.Add(a, b) {
		p.Tracker.Hit(a, b)
	}
}

// gather fills b with the given points (at most blockRows): keys ascending
// by (size, id), sketches copied side by side in that order — the only
// place brute force reads the collection-wide arrays. The order comes from
// a stable counting sort over the block's range of sizes (ids arrive
// ascending) or, if that range outgrows the counters, a comparison sort.
func (s *Scratch) gather(b *block, ids []uint32) {
	p := s.p
	lo, hi := ^uint32(0), uint32(0)
	for _, id := range ids {
		lo, hi = min(lo, p.Sizes[id]), max(hi, p.Sizes[id])
	}
	b.keys = b.keys[:len(ids)]
	if span := int(hi - lo); span+1 < len(s.count) {
		at := s.count[:span+2] // at[size-lo]: where the next row of that size goes
		clear(at)
		for _, id := range ids {
			at[p.Sizes[id]-lo+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for _, id := range ids {
			size := p.Sizes[id]
			b.keys[at[size-lo]] = uint64(size)<<32 | uint64(id)
			at[size-lo]++
		}
	} else {
		for i, id := range ids {
			b.keys[i] = uint64(p.Sizes[id])<<32 | uint64(id)
		}
		slices.Sort(b.keys)
	}
	fetch(p, b.sk, s.stride, b.keys)
}

// fetch copies the sketches of ids, the low 32 bits of each, into rows of
// dst stride words apart. At 8 words, the default width, a row is eight
// loads and eight stores: copy is a call to runtime.memmove, and so is
// assigning a [8]uint64 through pointers.
func fetch[T uint32 | uint64](p *Pipeline, dst []uint64, stride int, ids []T) {
	w, sk := p.Words, p.Sketches
	if w != 8 {
		for row, id := range ids {
			copy(dst[row*stride:][:w], sk[int(uint32(id))*w:])
		}
		return
	}
	for row, id := range ids {
		d, s := (*[8]uint64)(dst[row*stride:]), (*[8]uint64)(sk[int(uint32(id))*8:])
		d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
	}
}

// compare runs the pipeline over every pair of a row of a and a row of b
// or, with tri (a and b are then one block), over every unordered pair
// within it; all count as pre-candidates. Rows are in size order, so the
// partners passing the size filter — the row's size window — are a window
// [lo, hi) of b whose ends only move forward; within it, within picks the
// partners that pass the sketch filter, and the sequential test, if on,
// checks each of them.
func (s *Scratch) compare(a, b *block, tri bool) {
	if tri {
		s.Pre += int64(len(a.keys) * (len(a.keys) - 1) / 2)
	} else {
		s.Pre += int64(len(a.keys) * len(b.keys))
	}
	window, stride, maxHam, lo, hi := s.p.window, s.stride, s.p.MaxHam, 0, 0
	for p, ka := range a.keys {
		w := window[ka>>32]
		for lo < len(b.keys) && uint32(b.keys[lo]>>32) < w[0] {
			lo++
		}
		for hi < len(b.keys) && uint32(b.keys[hi]>>32) < w[1] {
			hi++
		}
		q := lo
		if tri {
			q = max(lo, p+1)
		}
		if q >= hi {
			continue
		}
		row := a.sk[p*stride:][:stride]
		for _, i := range within(row, b.sk[q*stride:hi*stride], maxHam, s.hits[:0]) {
			j := q + int(i)
			if s.p.prefix != nil && !s.p.sequential(row, b.sk[j*stride:]) {
				continue
			}
			s.candidate(uint32(ka), uint32(b.keys[j]))
		}
	}
}

// headBits is where the sketch filter may exit early: after the first four
// words. Two unrelated sketches differ there in 128 ± 8 bits (σ = √(256/4)),
// so below headCut, 3σ under that mean, nearly every unrelated pair is over
// the bound by then and the exit is a branch taken almost always. Above it,
// the exit is a coin flip the hardware cannot predict, and costs more than
// the four words it saves.
const (
	headBits = 4 * 64
	headCut  = headBits/2 - 3*8
)

// headBound is the distance over which the sketch filter leaves a pair
// after four words: maxHam below headCut, otherwise headBits, which four
// words never exceed — no flag, and no branch the hardware mispredicts.
func headBound(maxHam int) int {
	if maxHam < headCut {
		return maxHam
	}
	return headBits
}

// kernel is the path the probe at start-up picked (within_amd64.go):
// withinAVX512 where the CPU and the OS have AVX-512 and VPOPCNTQ,
// withinPOPCNT where the CPU has the POPCNT instruction, and nil on other
// CPUs and architectures, where within runs withinGo.
var kernel func(row, rows []uint64, maxHam, head int, hits []int32) int

// within appends to hits the index of every row of rows at most maxHam bits
// from row, and returns it; rows are len(row) words each, a multiple of 8,
// and hits has room for all of them. It is the sketch filter's one loop: a
// partner's first four words are XORed with the row's and popcounted, the
// pair leaves if that is over headBound(maxHam), the rest of the row is
// XORed and popcounted fully unrolled, 8 words at a time, and the sum is
// compared with maxHam once. withinAVX512 does the same for eight partners
// at once, without the early exit. within picks the path — kernel if the
// probe found one, withinGo otherwise — and hands it hits resliced to one
// slot per row, so that a hits too short panics here instead of being
// overrun.
func within(row, rows []uint64, maxHam int, hits []int32) []int32 {
	if len(row) == 0 || len(row)%8 != 0 {
		panic("verify: sketch rows are not whole 8-word blocks")
	}
	n, head := len(hits), headBound(maxHam)
	out := hits[n : n+len(rows)/len(row)]
	if kernel != nil {
		return hits[:n+kernel(row, rows, maxHam, head, out)]
	}
	return hits[:n+withinGo(row, rows, maxHam, head, out)]
}

// withinGo is within's loop in Go, the reference for withinPOPCNT and
// withinAVX512 and the path wherever neither runs: it writes the passing row indices to hits
// in order, leaving a pair after four words if they are over head, and
// returns how many. The row is read through a pointer rather than held in
// eight locals: under the default GOAMD64=v1 each bits.OnesCount64 tests a
// CPU feature and keeps a fallback call that clobbers every register, so
// locals would be spilled anyway.
func withinGo(row, rows []uint64, maxHam, head int, hits []int32) int {
	stride, k := len(row), 0
	r := (*[8]uint64)(row)
	for i := int32(0); len(rows) >= stride; i, rows = i+1, rows[stride:] {
		o := (*[8]uint64)(rows)
		d := bits.OnesCount64(r[0]^o[0]) + bits.OnesCount64(r[1]^o[1]) + bits.OnesCount64(r[2]^o[2]) + bits.OnesCount64(r[3]^o[3])
		if d > head {
			continue
		}
		d += bits.OnesCount64(r[4]^o[4]) + bits.OnesCount64(r[5]^o[5]) + bits.OnesCount64(r[6]^o[6]) + bits.OnesCount64(r[7]^o[7])
		if stride > 8 {
			d += sketch.Hamming(row[8:], rows[8:stride])
		}
		if d <= maxHam {
			hits[k] = i
			k++
		}
	}
	return k
}

// WithGoKernel runs f with the sketch filter on withinGo, the portable
// loop, instead of the one picked at start-up, and reports whether that
// was a different loop; if it was not, f is not run. Tests outside this
// package use it to run the join once per path; no join calls it.
func WithGoKernel(f func()) bool {
	if kernel == nil {
		return false
	}
	k := kernel
	kernel = nil
	defer func() { kernel = k }()
	f()
	return true
}

// Near appends to dst, in order, the ids whose sketch differs from center
// (Words words) in fewer than bound bits, and returns it: the stopping
// rule's pass over a node, run by the same block as the sketch filter. The
// sketches are fetched tile by tile into a gathered block first, in a loop
// of their own, so that their cache misses overlap.
func (s *Scratch) Near(ids []uint32, center []uint64, bound int, dst []uint32) []uint32 {
	p, stride := s.p, s.stride
	copy(s.center, center)
	for len(ids) > 0 {
		tile := ids[:min(blockRows, len(ids))]
		ids = ids[len(tile):]
		fetch(p, s.a.sk, stride, tile)
		for _, i := range within(s.center, s.a.sk[:len(tile)*stride], bound-1, s.hits[:0]) {
			dst = append(dst, tile[i])
		}
	}
	return dst
}

// BruteForcePairs reports all qualifying pairs within the node
// (BRUTEFORCEPAIRS in Algorithm 2): within each tile of blockRows members,
// then between it and everything after it. A last member on its own has no
// partner left.
func (s *Scratch) BruteForcePairs(node []uint32) {
	for len(node) > 1 {
		tile := node[:min(blockRows, len(node))]
		node = node[len(tile):]
		s.gather(&s.a, tile)
		s.compare(&s.a, &s.a, true)
		s.BruteForcePoints(tile, node)
	}
}

// BruteForcePoints compares each of points against all of others
// (BRUTEFORCEPOINT in Algorithm 2, for several points at once), tile by
// tile; the two lists share no id.
func (s *Scratch) BruteForcePoints(points, others []uint32) {
	for ; len(points) > 0 && len(others) > 0; points = points[min(blockRows, len(points)):] {
		s.gather(&s.a, points[:min(blockRows, len(points))])
		for rest := others; len(rest) > 0; rest = rest[min(blockRows, len(rest)):] {
			s.gather(&s.b, rest[:min(blockRows, len(rest))])
			s.compare(&s.a, &s.b, false)
		}
	}
}
