package verify

import (
	"math/bits"
	"slices"
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
// Bouros, PVLDB 2016), and runs XOR/popcount over the window, dropping a
// pair once its partial Hamming distance rules it out. The order of work
// differs from a per-pair formulation; which pairs are looked at and which
// survive do not (TestKernelMatchesPerPairReference).
//
// A Pipeline is the half all workers share, read-only while they run apart
// from the result set and the tracker, which are safe for concurrent use;
// the caller sets the sketch fields, Owners and Tracker after NewPipeline and
// before NewScratches.
type Pipeline struct {
	Lambda float64
	Sizes  []uint32 // len(sets[i]), so that gathering a block never touches sets

	// Words is the sketch width in 64-bit words, Sketches the flattened
	// n × Words matrix; a pair whose sketches are further apart than MaxHam
	// bits is rejected — sketch.Filter.Accept for MaxHam = 64·Words −
	// MinAgree. All zero with the sketch filter off.
	Words    int
	Sketches []uint64
	MaxHam   int

	// Owners restricts an R-S join to pairs of different owners; nil for a
	// self-join.
	Owners []uint8

	Verifier *Verifier
	Res      *ResultSet
	Tracker  *RecallTracker // nil without a recall target
}

// NewPipeline returns the pipeline of a join over sets at threshold lambda
// run by the given number of workers, with the sketch filter off.
func NewPipeline(sets [][]uint32, lambda float64, workers int) *Pipeline {
	p := &Pipeline{
		Lambda:   lambda,
		Sizes:    make([]uint32, len(sets)),
		Verifier: NewVerifier(sets, lambda),
		Res:      NewResultSet(workers),
	}
	for i, set := range sets {
		p.Sizes[i] = uint32(len(set))
	}
	return p
}

// Counters sums the workers' shares of the candidate counters and reads
// Results off the result set; call it once the workers are done.
func (p *Pipeline) Counters(workers []*Scratch) Counters {
	c := Counters{Results: int64(p.Res.Len())}
	for _, s := range workers {
		c.PreCandidates += s.Pre
		c.Candidates += s.Cand
	}
	return c
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
// counters (Pipeline.Counters sums them when the join ends) and the gathered
// blocks. A worker runs one task at a time and tasks reach their Scratch
// through exec.Ctx.Worker, so nothing here is locked, and nothing here is
// live across calls.
type Scratch struct {
	p         *Pipeline
	Pre, Cand int64
	stride    int // words per row of a gathered block: max(Words, 4)
	a, b      block
	count     [4 * blockRows]uint32 // gather: counting sort by size
}

// NewScratches returns one scratch per worker.
func (p *Pipeline) NewScratches(workers int) []*Scratch {
	out := make([]*Scratch, workers)
	for i := range out {
		s := &Scratch{p: p, stride: max(p.Words, 4)}
		for _, b := range []*block{&s.a, &s.b} {
			b.keys = make([]uint64, 0, blockRows)
			b.sk = make([]uint64, blockRows*s.stride)
		}
		out[i] = s
	}
	return out
}

// Candidate finishes the pipeline for a pair that passed the size and sketch
// filters: ownership, dedup, exact verification. Two workers can race past
// the dedup check and verify the same pair; ResultSet.Add keeps the result
// set exact, so only the Candidates counter can drift by the handful of
// double-verified pairs.
func (s *Scratch) Candidate(a, b uint32) {
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
	for row, k := range b.keys {
		copy(b.sk[row*s.stride:][:p.Words], p.Sketches[int(uint32(k))*p.Words:])
	}
}

// compare runs the pipeline over every pair of a row of a and a row of b
// or, with tri (a and b are then one block), over every unordered pair
// within it; all count as pre-candidates. Rows are in size order, so the
// partners passing the size filter — Verifier.SizeCompatible's float
// predicate, both ways — are a window [lo, hi) of b whose ends only move
// forward; within it a pair passes the sketch filter as in
// sketch.Filter.Accept, Hamming distance at most MaxHam, except that the
// count stops as soon as it is exceeded.
func (s *Scratch) compare(a, b *block, tri bool) {
	if tri {
		s.Pre += int64(len(a.keys) * (len(a.keys) - 1) / 2)
	} else {
		s.Pre += int64(len(a.keys) * len(b.keys))
	}
	lambda, stride, maxHam, lo, hi := s.p.Lambda, s.stride, s.p.MaxHam, 0, 0
	for p, ka := range a.keys {
		size := float64(ka >> 32)
		for lo < len(b.keys) && float64(b.keys[lo]>>32) < lambda*size {
			lo++
		}
		for hi < len(b.keys) && size >= lambda*float64(b.keys[hi]>>32) {
			hi++
		}
		q := lo
		if tri {
			q = max(lo, p+1)
		}
		// The row's first four words stay in registers across the window;
		// a pair still alive after them walks the rest word by word.
		row := a.sk[p*stride : (p+1)*stride]
		head, rest := (*[4]uint64)(row), row[4:]
		r0, r1, r2, r3 := head[0], head[1], head[2], head[3]
	partners:
		for win := b.sk[q*stride : hi*stride]; len(win) >= len(row); win = win[len(row):] {
			o := (*[4]uint64)(win)
			d := bits.OnesCount64(r0^o[0]) + bits.OnesCount64(r1^o[1]) + bits.OnesCount64(r2^o[2]) + bits.OnesCount64(r3^o[3])
			if d > maxHam {
				continue
			}
			other := win[4:][:len(rest)]
			for i, x := range rest {
				if d += bits.OnesCount64(x ^ other[i]); d > maxHam {
					continue partners
				}
			}
			s.Candidate(uint32(ka), uint32(b.keys[hi-len(win)/stride]))
		}
	}
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
