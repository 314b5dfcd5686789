package cpindex

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/chosenpath"
	"repro/internal/snapshot"
	"repro/internal/tabhash"
)

// trie is the index's only tree representation: every tree of every
// repetition in one CSR-style node table whose leaves are spans into a
// shared id array and whose internal nodes are spans of sampled positions,
// each position owning a span of (value, child) bucket entries sorted by
// value. Build emits it directly, snapshots persist the arrays as they are
// (see encode) and queries walk it iteratively, probing buckets by
// linear/binary search.
//
// Nodes are laid out in pre-order, so a child's index is always greater
// than its parent's; leaf and position spans are handed out in node order.
// decodeTrie enforces exactly this shape, which is what makes a decoded
// trie safe to walk.
//
// The arrays are Build's own on the heap, or decodeTrie's views of a
// container's "trees" section: the three record types below are that
// section's layout, 4-byte fields in file order, so they must not be
// reordered or widened.
type trie struct {
	roots   []int32      // node index of each tree's root
	nodes   []trieNode   // all nodes of all trees
	leafIDs []uint32     // concatenated leaf id spans
	pos     []triePos    // concatenated sampled-position spans
	buckets []trieBucket // concatenated per-position bucket spans
}

// trieNode is one node. It is a leaf iff posLo == posHi: internal nodes
// always sample at least one position, so the position span doubles as the
// discriminator. The span a node does not use is zero.
type trieNode struct {
	leafLo, leafHi uint32 // leafIDs[leafLo:leafHi], leaves only
	posLo, posHi   uint32 // pos[posLo:posHi], internal nodes only
}

// triePos is one sampled signature position of an internal node, with its
// bucket span.
type triePos struct {
	pos      uint32 // signature position in [0, T)
	bLo, bHi uint32 // buckets[bLo:bHi], sorted by val
}

// trieBucket maps one minhash value at a sampled position to a child node.
type trieBucket struct {
	val   uint32
	child int32
}

// treeBuilder grows one tree of the index into arrays of its own; Build
// runs one per repetition, possibly concurrently, concatenates them and
// drops the scratch (kids, byValue, the splitter's grouper).
type treeBuilder struct {
	opt      Options
	splitter chosenpath.Splitter
	trie     trie
	leaves   int
	kids     [][]uint32 // one Split buffer per depth, see add
	byValue  []uint64   // add: value<<32 | offset in kids of each group, sorted
}

// add appends the subtree over ids and returns its node index. It expands a
// node through internal/chosenpath, as the CPSJoin recursion in internal/core
// does: the node's generator samples the positions, Split groups the ids at
// each, and every child's seed is determined by its path from the root,
// never by build order, which is what makes the structure reproducible. ids
// arrive ascending (Split keeps each group's ids in node order), so leaves
// list ids in ascending order.
//
// A node becomes a leaf for one of three reasons, and only two of them
// keep its ids. Small enough (at most LeafSize) and too deep (MaxDepth):
// the ids stay and queries that reach the leaf verify them. Over LeafSize,
// under MaxDepth, and none of the T positions sampled: the node dies, as
// in the paper's recursion and in the index of Christiani and Pagh — it is
// emitted as an empty leaf, so the sets under it are simply not reachable
// through this branch, and the other branches and trees carry the recall.
// Keeping them instead would make the leaf a scan of the whole node: at
// the root that is every indexed set, with probability (1-1/(λT))^T ≈
// e^(-1/λ) per tree.
//
// The guarantee this gives. Fix an indexed set x and a query q with
// J(q, x) = s, and call a node live when it holds x and q's walk reaches
// it. A live internal node samples each of the T positions with
// probability 1/(λT), and a sampled position leads both x and q to the
// same child exactly when their minhashes agree there, which has
// probability s: the live children number Binomial(T, s/(λT)), mean s/λ,
// a branching process that is critical at s = λ and supercritical above.
// x is reported when a live node is a leaf that kept its ids. If the nodes
// around x fall to LeafSize after d levels (d ≈ log(n/LeafSize)/log(1/b)
// for a background similarity b; 2 to 3 for the benchmark's flat and skewed
// collections at 10 000 sets per shard), one tree succeeds with
// probability p_d(s), where
//
//	p_0 = 1,  p_k+1 = 1 - (1 - p_k·s/(λT))^T ≈ 1 - exp(-p_k·s/λ),
//
// and Trees independent trees with probability 1 - (1 - p_d(s))^Trees
// (T = 128):
//
//	s/λ    p_2    p_3    p_5    10 trees at d = 2, 3, 5
//	1.0    0.470  0.376  0.269  0.998  0.991  0.957
//	1.1    0.522  0.437  0.344  0.999  0.997  0.985
//	1.4    0.654  0.601  0.551  1.000  1.000  1.000
//	2.0    0.825  0.810  0.802  1.000  1.000  1.000
//
// That is why Trees defaults to 10: it is the smallest round count that
// holds 0.99 at s = λ itself up to three levels, and everything a tenth
// above λ up to five. A collection whose background similarity is close to
// λ splits deeper and needs ln(1-ϕ)/ln(1-p_d(λ)) trees for recall ϕ at the
// threshold; TestRecallByBand measures the table's first column.
func (b *treeBuilder) add(ids []uint32, depth int, seed uint64) int32 {
	t := &b.trie
	idx := int32(len(t.nodes))
	posLo := len(t.pos)
	split := len(ids) > b.opt.LeafSize && depth < b.opt.MaxDepth
	if split {
		for pos := range b.splitter.Positions(tabhash.NewSplitMix64(seed)) {
			t.pos = append(t.pos, triePos{pos: uint32(pos)})
		}
	}
	posHi := len(t.pos)
	if posLo == posHi {
		lo := uint32(len(t.leafIDs))
		if !split { // a node that wanted to split and sampled nothing is dead
			t.leafIDs = append(t.leafIDs, ids...)
		}
		t.nodes = append(t.nodes, trieNode{leafLo: lo, leafHi: uint32(len(t.leafIDs))})
		b.leaves++
		return idx
	}
	t.nodes = append(t.nodes, trieNode{posLo: uint32(posLo), posHi: uint32(posHi)})
	if depth == len(b.kids) { // depths are first reached one at a time
		b.kids = append(b.kids, nil)
	}
	for pi := posLo; pi < posHi; pi++ {
		// Group the ids by their value at p into this depth's buffer and
		// reserve the bucket span, in value order, before recursing, so the
		// children's own entries cannot fragment it; a bucket's child is its
		// group's offset in the buffer until the child is built. Children
		// write only deeper buffers, so this one is free once they return.
		p := int(t.pos[pi].pos)
		kids := b.splitter.Split(b.kids[depth][:0], ids, p, 1)
		byValue := b.byValue[:0]
		for at := 0; at < len(kids); at += 2 + int(kids[at+1]) {
			byValue = append(byValue, uint64(kids[at])<<32|uint64(at))
		}
		slices.Sort(byValue)
		b.kids[depth], b.byValue = kids, byValue
		bLo := len(t.buckets)
		for _, k := range byValue {
			t.buckets = append(t.buckets, trieBucket{val: uint32(k >> 32), child: int32(uint32(k))})
		}
		bHi := len(t.buckets)
		t.pos[pi].bLo, t.pos[pi].bHi = uint32(bLo), uint32(bHi)
		for bi := bLo; bi < bHi; bi++ {
			at := t.buckets[bi].child
			// The call appends to t.buckets: index it only afterwards.
			child := b.add(kids[at+2:at+2+int32(kids[at+1])], depth+1, chosenpath.ChildSeed(seed, p, t.buckets[bi].val))
			t.buckets[bi].child = child
		}
	}
	return idx
}

// appendTree concatenates one built tree (whose root is its node 0) onto
// t, shifting its indices past what t already holds.
func (t *trie) appendTree(o *trie) {
	nb, lb, pb, bb := len(t.nodes), uint32(len(t.leafIDs)), uint32(len(t.pos)), uint32(len(t.buckets))
	if nb+len(o.nodes) > math.MaxInt32 || len(t.leafIDs)+len(o.leafIDs) > math.MaxUint32 ||
		len(t.pos)+len(o.pos) > math.MaxUint32 || len(t.buckets)+len(o.buckets) > math.MaxUint32 {
		panic(fmt.Sprintf("cpindex: trie overflow (%d nodes)", nb+len(o.nodes)))
	}
	t.roots = append(t.roots, int32(nb))
	for _, n := range o.nodes {
		if n.posLo == n.posHi {
			n.leafLo, n.leafHi = n.leafLo+lb, n.leafHi+lb
		} else {
			n.posLo, n.posHi = n.posLo+pb, n.posHi+pb
		}
		t.nodes = append(t.nodes, n)
	}
	t.leafIDs = append(t.leafIDs, o.leafIDs...)
	for _, p := range o.pos {
		p.bLo, p.bHi = p.bLo+bb, p.bHi+bb
		t.pos = append(t.pos, p)
	}
	for _, bk := range o.buckets {
		bk.child += int32(nb)
		t.buckets = append(t.buckets, bk)
	}
}

// findChild probes the bucket span [bLo, bHi) for val: a linear scan for
// short spans, binary search otherwise. Spans are sorted by value.
func (t *trie) findChild(bLo, bHi, val uint32) (int32, bool) {
	if bHi-bLo <= 8 {
		for i := bLo; i < bHi; i++ {
			if t.buckets[i].val == val {
				return t.buckets[i].child, true
			}
		}
		return 0, false
	}
	lo, hi := bLo, bHi
	for lo < hi {
		mid := (lo + hi) / 2
		if t.buckets[mid].val < val {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < bHi && t.buckets[lo].val == val {
		return t.buckets[lo].child, true
	}
	return 0, false
}

// collect walks the tree rooted at root depth-first, positions in order,
// following sc.qsig, and leaves every not-yet-visited leaf id in sc.cands
// in visit order, stamping it in the epoch-keyed visited array. Candidates
// are verified by the caller; separating traversal from verification
// changes nothing because verification has no effect on the walk.
func (t *trie) collect(root int32, sc *queryScratch) {
	sc.cands = sc.cands[:0]
	stack := append(sc.stack[:0], root)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[ni]
		if n.posLo == n.posHi { // leaf
			for _, id := range t.leafIDs[n.leafLo:n.leafHi] {
				if sc.visited[id] != sc.epoch {
					sc.visited[id] = sc.epoch
					sc.cands = append(sc.cands, id)
					sc.stats.Candidates++
				}
			}
			continue
		}
		// Push matching children in reverse position order so the LIFO pop
		// explores the first position's child first.
		for pi := n.posHi; pi > n.posLo; pi-- {
			p := &t.pos[pi-1]
			if child, ok := t.findChild(p.bLo, p.bHi, sc.qsig[p.pos]); ok {
				stack = append(stack, child)
			}
		}
	}
	sc.stack = stack // keep the grown stack for reuse
}

// The persisted form of a trie is its arrays, fixed-width little-endian:
//
//	counts   5 x u32   roots, nodes, leaf ids, positions, buckets
//	roots    u32 each
//	nodes    4 x u32   leafLo, leafHi, posLo, posHi
//	leafIDs  u32 each
//	pos      3 x u32   pos, bLo, bHi
//	buckets  2 x u32   val, child
const (
	trieHeaderWords = 5
	nodeWords       = 4
	posWords        = 3
	bucketWords     = 2
)

// encode serializes the arrays, each with one append of its own words. The
// layout is a pure function of the logical trie, so snapshots of the same
// index are byte-identical.
func (t *trie) encode() []byte {
	counts := []uint32{uint32(len(t.roots)), uint32(len(t.nodes)), uint32(len(t.leafIDs)), uint32(len(t.pos)), uint32(len(t.buckets))}
	b := make([]byte, 0, 4*(trieHeaderWords+len(t.roots)+nodeWords*len(t.nodes)+len(t.leafIDs)+
		posWords*len(t.pos)+bucketWords*len(t.buckets)))
	for _, words := range [][]uint32{
		counts,
		snapshot.Cast[uint32](t.roots),
		snapshot.Cast[uint32](t.nodes),
		t.leafIDs,
		snapshot.Cast[uint32](t.pos),
		snapshot.Cast[uint32](t.buckets),
	} {
		b = append(b, snapshot.Bytes(words)...)
	}
	return b
}

// clone copies the five arrays to the heap: what a view that outlives the
// container decodeTrie read (Mapped.Index) walks instead.
func (t *trie) clone() *trie {
	return &trie{
		roots:   slices.Clone(t.roots),
		nodes:   slices.Clone(t.nodes),
		leafIDs: slices.Clone(t.leafIDs),
		pos:     slices.Clone(t.pos),
		buckets: slices.Clone(t.buckets),
	}
}

// decodeTrie reads a "trees" payload written by encode where it lies: the
// arrays of the result are snapshot.Cast over a snapshot.View of payload, so
// they alias it when it is 4-aligned on a little-endian host (a section of a
// mapped container is) and are View's one native copy otherwise. Either way
// nothing is decoded field by field, and the trie is valid for as long as
// payload is.
//
// The payload is validated in one linear pass, so that walking the result
// can neither leave an array nor fail to terminate nor cost more than the
// structure's size: counts must account for the payload exactly (so no
// array reaches beyond it), every span must lie inside its array, leaf and
// position spans must follow each other in node order, bucket values must
// be strictly increasing, every child index must exceed its parent's and be
// claimed by exactly one bucket, leaf ids must be below nsets and positions
// below T. A payload that breaks a rule yields ErrCorrupt naming it, never
// a panic or a silently wrong index.
func decodeTrie(payload []byte, opt Options, nsets, nodes, leaves int) (*trie, error) {
	fail := func(format string, args ...any) (*trie, error) {
		return nil, fmt.Errorf("%w: section %q: %s", snapshot.ErrCorrupt, "trees", fmt.Sprintf(format, args...))
	}
	if len(payload) < 4*trieHeaderWords {
		return fail("truncated header (%d bytes)", len(payload))
	}
	body := len(payload) - 4*trieHeaderWords
	words := snapshot.View[uint32](payload)
	nroots, nnodes, nleaf, npos, nbuckets := uint64(words[0]), uint64(words[1]), uint64(words[2]), uint64(words[3]), uint64(words[4])
	if want := 4 * (nroots + nodeWords*nnodes + nleaf + posWords*npos + bucketWords*nbuckets); want != uint64(body) {
		return fail("counts need %d bytes, payload holds %d", want, body)
	}
	if nroots != uint64(opt.Trees) || nnodes != uint64(nodes) || nnodes > math.MaxInt32 {
		return fail("%d roots over %d nodes, meta says %d trees over %d nodes", nroots, nnodes, opt.Trees, nodes)
	}
	// The counts add up to the words that are there, so each take is in range.
	words = words[trieHeaderWords:]
	take := func(n uint64) []uint32 {
		part := words[:n:n]
		words = words[n:]
		return part
	}
	t := new(trie)
	t.roots = snapshot.Cast[int32](take(nroots))
	t.nodes = snapshot.Cast[trieNode](take(nodeWords * nnodes))
	t.leafIDs = take(nleaf)
	t.pos = snapshot.Cast[triePos](take(posWords * npos))
	t.buckets = snapshot.Cast[trieBucket](take(bucketWords * nbuckets))

	// claimed[i] is set once node i is some tree's root or some bucket's
	// child: every node must be reached exactly one way, so the walk is a
	// walk of trees and its cost is bounded by the structure's size.
	claimed := make([]bool, nnodes)
	for _, r := range t.roots {
		if r < 0 || uint64(r) >= nnodes || claimed[r] {
			return fail("root index %d out of range or repeated (%d nodes)", r, nnodes)
		}
		claimed[r] = true
	}
	var nextLeaf, nextPos, edges uint32
	gotLeaves := 0
	for i, n := range t.nodes {
		if !claimed[i] {
			return fail("node %d is not reachable from a preceding node", i)
		}
		if n.posLo == n.posHi {
			if n.posLo != 0 {
				return fail("internal node %d with no positions", i)
			}
			if n.leafLo != nextLeaf || n.leafHi < n.leafLo || uint64(n.leafHi) > nleaf {
				return fail("node %d: leaf span [%d,%d) out of order or past the %d leaf ids", i, n.leafLo, n.leafHi, nleaf)
			}
			nextLeaf = n.leafHi
			gotLeaves++
			continue
		}
		if n.leafLo != 0 || n.leafHi != 0 || n.posLo != nextPos || n.posHi < n.posLo || uint64(n.posHi) > npos {
			return fail("node %d: position span [%d,%d) out of order or past the %d positions", i, n.posLo, n.posHi, npos)
		}
		nextPos = n.posHi
		for _, p := range t.pos[n.posLo:n.posHi] {
			if p.pos >= uint32(opt.T) {
				return fail("node %d: position %d out of [0,%d)", i, p.pos, opt.T)
			}
			if p.bLo >= p.bHi || uint64(p.bHi) > nbuckets {
				return fail("node %d: bucket span [%d,%d) empty or past the %d buckets", i, p.bLo, p.bHi, nbuckets)
			}
			for bi := p.bLo; bi < p.bHi; bi++ {
				bk := t.buckets[bi]
				if bi > p.bLo && bk.val <= t.buckets[bi-1].val {
					return fail("node %d: bucket values not strictly increasing at bucket %d", i, bi)
				}
				if int(bk.child) <= i || uint64(bk.child) >= nnodes || claimed[bk.child] {
					return fail("node %d: child index %d not in (%d,%d) or claimed twice", i, bk.child, i, nnodes)
				}
				claimed[bk.child] = true
				edges++
			}
		}
	}
	if uint64(nextLeaf) != nleaf || uint64(nextPos) != npos || uint64(edges) != nbuckets || gotLeaves != leaves {
		return fail("unreferenced entries (%d/%d leaf ids, %d/%d positions, %d/%d buckets) or %d leaves where meta says %d",
			nextLeaf, nleaf, nextPos, npos, edges, nbuckets, gotLeaves, leaves)
	}
	for _, id := range t.leafIDs {
		if uint64(id) >= uint64(nsets) {
			return fail("leaf id %d out of [0,%d)", id, nsets)
		}
	}
	return t, nil
}
