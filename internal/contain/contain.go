// Package contain implements LSH Ensemble-style Jaccard containment
// search (Zhu, Nargesian, Pu & Miller, "LSH Ensemble: Internet-Scale
// Domain Search", VLDB 2016): given a query set q and a threshold t,
// find indexed sets y with containment C(q, y) = |q ∩ y| / |q| >= t.
//
// Containment is not directly LSHable, but for sets whose cardinality
// is bounded above by u it translates into an equivalent Jaccard
// threshold
//
//	ξ(|q|, u, t) = t·|q| / (|q| + u − t·|q|)
//
// (any y with |y| <= u and C(q, y) >= t has J(q, y) >= ξ). So the index
// partitions sets into geometric cardinality bands — band j holds sets
// with |y| in [2^j, 2^(j+1))— and banding-based MinHash LSH answers a
// Jaccard query per band, with (b, r) tuned *per query and per band*
// from the band's upper bound: the signature is cut into b bands of r
// rows each, and a set collides when any band of r minhash values
// matches exactly. At query time the largest r whose collision
// probability 1 − (1 − ξ^r)^b still reaches TargetProb is selected, so
// bands close to the threshold are probed precisely while permissive
// bands stay cheap.
//
// Every r is served by one structure, as LSH Ensemble does by building
// on LSH Forest (Bawa, Condie & Ganesan, WWW 2005): keys are kept
// sorted and a band of r rows is a prefix lookup. For each start row
// s in [0, T) a cardinality band keeps its members sorted by signature
// rows s, s+1, …; r is always a power of two, so the LSH band
// [bi·r, (bi+1)·r) starts at s = bi·r and the members colliding with a
// query there are the run of that order whose first r rows equal the
// query's, found by binary search against the signature matrix. A set
// costs 4·T bytes of order beside its 4·T bytes of signature (256 + 256
// at the default T) and the index holds no hash keys — a hash table per
// r held each set 2T − 1 times, keys and slice headers on top. The run
// is exactly the bucket such a table would hold (two members share a
// bucket iff their r rows are equal), so candidates are the same.
//
// Candidates are approximate (recall ~ TargetProb, possible false
// positives from banding); callers verify each candidate exactly with
// intset.ContainmentAtLeast, which makes final results exact-precision
// and deterministic regardless of how a collection is sharded — every
// shard builds with the same seed and the same global band boundaries,
// so the union of per-shard candidate sets always covers the same true
// matches.
package contain

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/minhash"
)

// DefaultT is the signature length used when Options.T is zero.
const DefaultT = 64

// TargetProb is the per-band collision probability the query-time
// (b, r) tuning aims for at the equivalent Jaccard threshold. It
// lower-bounds the recall of candidate generation for true matches.
const TargetProb = 0.9

// maxBands bounds the geometric cardinality partition: band j covers
// set sizes [2^j, 2^(j+1)), so 32 bands cover every possible set.
const maxBands = 32

// Options configures a containment index.
type Options struct {
	// T is the MinHash signature length (default DefaultT). Larger T
	// raises recall resolution at proportional signing cost.
	T int
	// Seed derives every hash function. Two indexes built with equal
	// seeds produce identical candidates for identical inputs; shards
	// of one logical index must share a seed so candidate generation
	// is independent of the partitioning.
	Seed uint64
}

// Signer is the hash functions of one Options: T MinHash functions drawn
// from Seed, 8 KB of tabulation tables each (0.5 MB at the default T). It is
// immutable and safe for concurrent use, and any number of indexes share
// one — the shards of a ring all sign under the ring's seed, so the ring
// keeps one Signer, builds every shard's index with it, signs a query once
// and asks each shard with QuerySigned.
type Signer struct {
	opts Options // T resolved
	mh   *minhash.Signer
}

// NewSigner draws the hash functions of opts.
func NewSigner(opts Options) *Signer {
	if opts.T <= 0 {
		opts.T = DefaultT
	}
	return &Signer{opts: opts, mh: minhash.NewSigner(opts.T, opts.Seed)}
}

// Options returns the options the signer was drawn from, T resolved.
func (s *Signer) Options() Options { return s.opts }

// Sign returns the signature of q, which must not be empty: what
// Index.QuerySigned takes, for every index that shares s.
func (s *Signer) Sign(q []uint32) []uint32 { return s.mh.Sign(q) }

// Index is an immutable containment index over a collection of sets.
// Build it once; concurrent Query calls are safe.
type Index struct {
	t      int
	signer *Signer
	n      int
	sigs   []uint32 // n*T flattened signatures; empty sets hold zeros
	// bands[j] is cardinality band j, the m non-empty sets of size in
	// [2^j, 2^(j+1)), as T orders back to back: bands[j][s*m:(s+1)*m]
	// holds the members sorted by signature rows s, …, s+width(s)−1,
	// ties by id. nil when the band has no member.
	bands [maxBands][]int32
}

// Build indexes the collection under hash functions of its own. Empty sets
// are tolerated and simply never returned as candidates. The input slices
// are not retained.
func Build(sets [][]uint32, opts Options) *Index {
	return NewSigner(opts).Build(sets)
}

// Build is the package's Build under s, which the index shares.
func (s *Signer) Build(sets [][]uint32) *Index {
	ix := &Index{t: s.opts.T, signer: s, n: len(sets)}
	ix.sigs = make([]uint32, len(sets)*ix.t)
	for i, set := range sets {
		if len(set) > 0 {
			s.mh.SignInto(set, ix.sigs[i*ix.t:(i+1)*ix.t])
		}
	}
	ix.sortBands(sets)
	return ix
}

// sortBands assigns every non-empty set to its cardinality band and sorts
// the band's T orders over the signatures already in place: two
// allocation-free passes size and fill the bands, so a band is one slice.
func (ix *Index) sortBands(sets [][]uint32) {
	var size, fill [maxBands]int
	for _, set := range sets {
		if len(set) > 0 {
			size[bandFor(len(set))]++
		}
	}
	for j, m := range size {
		if m > 0 {
			ix.bands[j] = make([]int32, m*ix.t)
		}
	}
	for i, set := range sets {
		if len(set) > 0 {
			j := bandFor(len(set))
			ix.bands[j][fill[j]] = int32(i)
			fill[j]++
		}
	}
	for j, m := range size {
		if m == 0 {
			continue
		}
		orders := ix.bands[j]
		for s := 0; s < ix.t; s++ {
			order, w := orders[s*m:(s+1)*m], ix.width(s)
			// The comparison is a total order, so whichever permutation
			// of the members the first block holds by now sorts the same.
			copy(order, orders[:m])
			slices.SortFunc(order, func(x, y int32) int {
				if c := slices.Compare(ix.rows(x, s, w), ix.rows(y, s, w)); c != 0 {
					return c
				}
				return cmp.Compare(x, y)
			})
		}
	}
}

// bandFor returns the cardinality band index of a set of size n >= 1:
// the j with n in [2^j, 2^(j+1)).
func bandFor(n int) int {
	return bits.Len(uint(n)) - 1
}

// width returns the widest probe-able r whose LSH bands include one
// starting at row s: the largest power of two that divides s and fits
// in [s, T). Every narrower r that starts at s divides it, so its band
// is a prefix of the rows the order at s is sorted by.
func (ix *Index) width(s int) int {
	w := 1
	for s%(2*w) == 0 && s+2*w <= ix.t {
		w *= 2
	}
	return w
}

// rows returns signature rows [s, s+r) of member lid.
func (ix *Index) rows(lid int32, s, r int) []uint32 {
	return ix.sigs[int(lid)*ix.t+s : int(lid)*ix.t+s+r]
}

// EquivalentJaccard returns ξ(qlen, upper, t): the Jaccard threshold
// equivalent to containment threshold t for a query of qlen tokens
// against sets of cardinality at most upper. Using a band's upper
// bound makes ξ a lower bound over the band, which is the recall-safe
// direction.
func EquivalentJaccard(qlen, upper int, t float64) float64 {
	return t * float64(qlen) / (float64(qlen+upper) - t*float64(qlen))
}

// CollisionProb returns the probability 1 − (1 − s^r)^b that banding
// with b bands of r rows emits a pair with Jaccard similarity s.
func CollisionProb(s float64, r, b int) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

// Query returns the local ids of candidate sets whose containment of q
// may reach t, sorted ascending and duplicate-free. Callers must verify
// each candidate exactly (intset.ContainmentAtLeast); recall of true
// matches is approximately TargetProb per matching set. It panics if t
// is outside (0, 1]. An empty query has no candidates.
func (ix *Index) Query(q []uint32, t float64) []int32 {
	var sig []uint32
	if len(q) > 0 {
		sig = ix.signer.Sign(q)
	}
	return ix.QuerySigned(sig, len(q), t)
}

// QuerySigned is Query for a query of lq tokens whose signature under
// Signer() the caller already holds: one signing serves every index that
// shares the signer. sig is ignored when lq is zero.
func (ix *Index) QuerySigned(sig []uint32, lq int, t float64) []int32 {
	if t <= 0 || t > 1 {
		panic(fmt.Sprintf("contain: threshold %v out of (0,1]", t))
	}
	if lq == 0 || ix.n == 0 {
		return nil
	}
	if len(sig) != ix.t {
		panic(fmt.Sprintf("contain: query signature of %d rows, index has T=%d", len(sig), ix.t))
	}
	// A member collides in many LSH bands: runs are merged in a bit set
	// over the local ids (n/8 bytes beside orders of 4·T·n), which also
	// hands the candidates back ascending.
	seen := make([]uint64, (ix.n+63)/64)
	for j, orders := range ix.bands {
		if orders == nil {
			continue
		}
		// No member of this band can pass exact verification: the best
		// possible intersection is min(|q|, upper) tokens.
		upper := 1<<(j+1) - 1
		if float64(min(lq, upper))/float64(lq) < t {
			continue
		}
		r := ix.chooseR(EquivalentJaccard(lq, upper, t))
		m := len(orders) / ix.t
		for s := 0; s+r <= ix.t; s += r {
			order, key := orders[s*m:(s+1)*m], sig[s:s+r]
			lo := sort.Search(m, func(i int) bool {
				return slices.Compare(ix.rows(order[i], s, r), key) >= 0
			})
			n := sort.Search(m-lo, func(i int) bool {
				return slices.Compare(ix.rows(order[lo+i], s, r), key) > 0
			})
			for _, lid := range order[lo : lo+n] {
				seen[lid>>6] |= 1 << (lid & 63)
			}
		}
	}
	var out []int32
	for wi, w := range seen {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// chooseR picks the largest probe-able row count — a power of two up
// to T — whose collision probability at the equivalent Jaccard
// threshold xi still reaches TargetProb, falling back to r=1 (probe
// everything that shares a single minhash) when even that is too
// selective.
func (ix *Index) chooseR(xi float64) int {
	best := 1
	for r := 2; r <= ix.t; r <<= 1 {
		if CollisionProb(xi, r, ix.t/r) >= TargetProb {
			best = r
		}
	}
	return best
}

// Len returns the number of indexed sets (including empty ones).
func (ix *Index) Len() int { return ix.n }

// Signer returns the hash functions the index was built under: what signs
// a query for QuerySigned.
func (ix *Index) Signer() *Signer { return ix.signer }
