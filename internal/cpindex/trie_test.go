package cpindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/intset"
	"repro/internal/minhash"
	"repro/internal/race"
	"repro/internal/tabhash"
)

// goldenShapes pin the kernel's answers and QueryStats as SHA-256 digests
// (goldenDigest below) on four index shapes. The node and leaf counts and
// the digest of the empty index come from the pointer-tree walk the CSR
// trie replaced; the other three digests are those of trees whose dead
// nodes hold nothing (CHANGES.md, PR 16, lists the ones they replaced).
// Their best-match halves were re-recorded once more when a best-match
// query became the all-matches walk reduced by Top; the all-matches halves
// did not change. TestGoldenPointerWalk also checks them against refTree, an independent
// pointer-tree build and walk, so they are not the kernel pinned to itself.
var goldenShapes = []struct {
	n, leafSize   int
	nodes, leaves int
	digest        string
}{
	{400, 4, 12972, 10193, "9106390e2e410c39c5d0c80273a6996705134eacdf2870bedfc92c1f4f50ba58"},
	{1500, 32, 13930, 13925, "57e580bbfce379fc8a66cb4cd1cc42201345764bfecf71c0f8e5a0961773d7f5"},
	{50, 1, 1347681, 782953, "a47b517e68306d3dfabd90ffc961dce600be14fe54bab94dfcbb5e35a1c1e591"},
	{0, 32, 6, 6, "f03c505957b59072d4d0a15035bd65822ef9f0e8772538985ef5f3d0ab94cf71"},
}

// refTree is the reference the goldens are checked against: the index as
// a tree of pointers and maps, built recursively with the same seeds and
// the same three leaf rules as treeBuilder.add, and walked recursively.
type refTree struct {
	ids      []uint32              // leaf: the ids it kept (none when dead)
	pos      []uint32              // internal: sampled positions, ascending
	children []map[uint32]*refTree // per position: minhash value → child
}

func refBuild(opt Options, lambda float64, sigs []uint32, ids []uint32, depth int, seed uint64) *refTree {
	n := &refTree{}
	if len(ids) <= opt.LeafSize || depth >= opt.MaxDepth {
		n.ids = ids
		return n
	}
	rng := tabhash.NewSplitMix64(seed)
	for pos := 0; pos < opt.T; pos++ {
		if rng.Float64() < 1/(lambda*float64(opt.T)) {
			n.pos = append(n.pos, uint32(pos))
		}
	}
	for _, p := range n.pos {
		groups := map[uint32][]uint32{}
		for _, id := range ids {
			v := sigs[int(id)*opt.T+int(p)]
			groups[v] = append(groups[v], id)
		}
		kids := map[uint32]*refTree{}
		for v, g := range groups {
			kids[v] = refBuild(opt, lambda, sigs, g, depth+1, tabhash.DeriveSeed(seed, uint64(p), uint64(v)))
		}
		n.children = append(n.children, kids)
	}
	return n // no position sampled: an internal node without children, dead
}

// walk appends the not yet seen ids of the leaves q's signature reaches.
func (n *refTree) walk(qsig []uint32, seen map[uint32]bool, out []uint32) []uint32 {
	for _, id := range n.ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for i, p := range n.pos {
		if c := n.children[i][qsig[p]]; c != nil {
			out = c.walk(qsig, seen, out)
		}
	}
	return out
}

// refIndex answers the all-matches query from refTrees the way the kernel
// documents it: trees in order, ids seen once per query, every candidate
// verified. Its best match is that answer reduced by Top.
type refIndex struct {
	lambda float64
	sets   [][]uint32
	signer *minhash.Signer
	trees  []*refTree
}

func newRefIndex(sets [][]uint32, lambda float64, opt Options) *refIndex {
	r := &refIndex{lambda: lambda, sets: sets, signer: minhash.NewSigner(opt.T, opt.Seed)}
	sigs := r.signer.SignAll(sets)
	all := make([]uint32, len(sets))
	for i := range all {
		all[i] = uint32(i)
	}
	for tr := 0; tr < opt.Trees; tr++ {
		r.trees = append(r.trees, refBuild(opt, lambda, sigs, all, 0, tabhash.Mix64(opt.Seed+uint64(tr)*0xc9f1)))
	}
	return r
}

func (r *refIndex) query(q []uint32) (ms []Match, st QueryStats) {
	if len(q) == 0 {
		return
	}
	qsig := make([]uint32, r.signer.T())
	r.signer.SignInto(q, qsig)
	seen := map[uint32]bool{}
	for _, tree := range r.trees {
		for _, id := range tree.walk(qsig, seen, nil) {
			st.Candidates++
			st.Verified++
			if sim := intset.Jaccard(q, r.sets[id]); sim < r.lambda {
				st.Rejected++
			} else {
				ms = append(ms, Match{ID: int(id), Sim: sim})
			}
		}
	}
	return
}

// goldenDigest hashes, per query, the best-match answer with its stats
// followed by the all-matches answer with its stats.
func goldenDigest(t *testing.T, queries [][]uint32,
	best func(q []uint32) (int, float64, bool, QueryStats, error),
	all func(q []uint32) ([]Match, QueryStats, error)) string {
	t.Helper()
	h := sha256.New()
	u64 := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, q := range queries {
		id, sim, ok, st, err := best(q)
		if err != nil {
			t.Fatal(err)
		}
		found := uint64(0)
		if ok {
			found = 1
		}
		u64(uint64(int64(id)), math.Float64bits(sim), found, st.Candidates, st.Verified, st.Rejected)
		ms, ast, err := all(q)
		if err != nil {
			t.Fatal(err)
		}
		u64(uint64(len(ms)))
		for _, m := range ms {
			u64(uint64(int64(m.ID)), math.Float64bits(m.Sim))
		}
		u64(ast.Candidates, ast.Verified, ast.Rejected)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func indexDigest(t *testing.T, ix *Index, queries [][]uint32) string {
	return goldenDigest(t, queries,
		func(q []uint32) (int, float64, bool, QueryStats, error) {
			id, sim, ok, st := ix.QueryWithStats(q)
			return id, sim, ok, st, nil
		},
		func(q []uint32) ([]Match, QueryStats, error) {
			ms, st := ix.AppendAllWithStats(nil, q)
			return ms, st, nil
		})
}

// TestGoldenPointerWalk: the kernel reproduces the reference pointer
// walk's answers and QueryStats, and the recorded digests of them, after
// Build, after Encode→Decode, and through the mapped view.
func TestGoldenPointerWalk(t *testing.T) {
	for _, tc := range goldenShapes {
		t.Run(fmt.Sprintf("n=%d/leaf=%d", tc.n, tc.leafSize), func(t *testing.T) {
			sets, _ := buildWorkload(tc.n, 0.8, uint64(tc.n)+21)
			ix := Build(sets, 0.5, &Options{Seed: 22, LeafSize: tc.leafSize, Trees: 6})
			if ix.Nodes != tc.nodes || ix.Leaves != tc.leaves {
				t.Fatalf("built %d nodes / %d leaves, the pointer build had %d / %d", ix.Nodes, ix.Leaves, tc.nodes, tc.leaves)
			}
			queries := slices.Clone(sets[:min(len(sets), 200)])
			queries = append(queries, []uint32{1 << 30, 1<<30 + 3}, nil)
			ref := newRefIndex(sets, 0.5, ix.Options())
			got := goldenDigest(t, queries,
				func(q []uint32) (int, float64, bool, QueryStats, error) {
					ms, st := ref.query(q)
					best, ok := Top(ms)
					return best.ID, best.Sim, ok, st, nil
				},
				func(q []uint32) ([]Match, QueryStats, error) {
					ms, st := ref.query(q)
					return ms, st, nil
				})
			if got != tc.digest {
				t.Errorf("reference pointer walk: digest %s, recorded %s", got, tc.digest)
			}
			if got := indexDigest(t, ix, queries); got != tc.digest {
				t.Errorf("after Build: digest %s, recorded %s", got, tc.digest)
			}

			var buf bytes.Buffer
			if err := ix.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := indexDigest(t, dec, queries); got != tc.digest {
				t.Errorf("after Encode→Decode: digest %s, recorded %s", got, tc.digest)
			}
			var again bytes.Buffer
			if err := dec.Encode(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Error("re-encoding the decoded index changed the bytes")
			}

			m, err := openMappedBytes(t, buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			in, err := m.InPlace()
			if err != nil {
				t.Fatal(err)
			}
			if got := indexDigest(t, in, queries); got != tc.digest {
				t.Errorf("through Mapped.InPlace: digest %s, recorded %s", got, tc.digest)
			}
		})
	}
}

// TestQueryIsTopOfAll: on every golden shape, Query's answer and stats are
// those of the all-matches walk, its answer reduced by Top, so a best-match
// query finds the best match the trees reach.
func TestQueryIsTopOfAll(t *testing.T) {
	for _, tc := range goldenShapes {
		sets, _ := buildWorkload(tc.n, 0.8, uint64(tc.n)+21)
		ix := Build(sets, 0.5, &Options{Seed: 22, LeafSize: tc.leafSize, Trees: 6})
		queries := append(slices.Clone(sets[:min(len(sets), 200)]), []uint32{1 << 30, 1<<30 + 3}, nil)
		for qi, q := range queries {
			id, sim, ok, st := ix.QueryWithStats(q)
			all, ast := ix.AppendAllWithStats(nil, q)
			if top, tok := Top(all); top.ID != id || top.Sim != sim || tok != ok || ast != st {
				t.Fatalf("n=%d query %d: Query (%d,%v,%v,%+v), the top of QueryAll (%+v,%v,%+v)",
					tc.n, qi, id, sim, ok, st, top, tok, ast)
			}
		}
	}
}

// TestTop pins the best-match order on lists in any order: the highest
// score, ties to the lower id, and no match in an empty list.
func TestTop(t *testing.T) {
	for _, tc := range []struct {
		ms   []Match
		want Match
		ok   bool
	}{
		{nil, Match{ID: -1}, false},
		{[]Match{{ID: 4, Sim: 0.5}}, Match{ID: 4, Sim: 0.5}, true},
		{[]Match{{ID: 9, Sim: 0.6}, {ID: 2, Sim: 0.8}, {ID: 5, Sim: 0.7}}, Match{ID: 2, Sim: 0.8}, true},
		{[]Match{{ID: 9, Sim: 0.8}, {ID: 3, Sim: 0.8}, {ID: 7, Sim: 0.8}}, Match{ID: 3, Sim: 0.8}, true},
		{[]Match{{ID: 1, Sim: 0.5}, {ID: 8, Sim: 0.9}, {ID: 6, Sim: 0.9}}, Match{ID: 6, Sim: 0.9}, true},
	} {
		if got, ok := Top(tc.ms); got != tc.want || ok != tc.ok {
			t.Errorf("Top(%v) = %+v, %v; want %+v, %v", tc.ms, got, ok, tc.want, tc.ok)
		}
	}
}

// TestTreeStructure holds every built tree to the three leaf rules of
// treeBuilder.add: a leaf larger than LeafSize sits at MaxDepth (a node
// that is over LeafSize higher up either splits or dies, it never keeps
// its ids), so no tree's root is a leaf holding the collection; and to
// the build being the same bytes for any worker count. The third
// collection is there for the MaxDepth rule: forty copies of one set stay
// together all the way down.
func TestTreeStructure(t *testing.T) {
	const n = 4000
	dups := flatShape().collection(200, 5)
	for i := 0; i < 40; i++ {
		dups = append(dups, dups[0])
	}
	collections := []struct {
		name string
		sets [][]uint32
		opt  Options
	}{
		{"flat", flatShape().collection(n, 3), Options{}},
		{"skew", skewShape(n).collection(n, 4), Options{}},
		{"duplicates", dups, Options{MaxDepth: 5}},
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if race.Enabled || testing.Short() {
		seeds = seeds[:2]
	}
	for _, c := range collections {
		t.Run(c.name, func(t *testing.T) {
			deepLeaves := 0
			for _, seed := range seeds {
				build := func(workers int) (*Index, []byte) {
					opt := c.opt
					opt.Seed, opt.Workers = seed, workers
					ix := Build(c.sets, 0.5, &opt)
					var buf bytes.Buffer
					if err := ix.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					return ix, buf.Bytes()
				}
				ix, want := build(0)
				deepLeaves += checkLeafRules(t, ix, seed)
				for _, workers := range []int{1, 4} {
					if _, got := build(workers); !bytes.Equal(want, got) {
						t.Fatalf("seed %d: workers=%d encodes differently from workers=0", seed, workers)
					}
				}
			}
			if c.name == "duplicates" && deepLeaves == 0 {
				t.Error("no leaf over LeafSize at MaxDepth: the rule for it went untested")
			}
		})
	}
}

// checkLeafRules walks every tree of ix with its depths and returns the
// number of leaves over LeafSize (all of which must sit at MaxDepth).
func checkLeafRules(t *testing.T, ix *Index, seed uint64) (deepLeaves int) {
	t.Helper()
	tr, opt := ix.trie, ix.Options()
	type at struct {
		node  int32
		depth int
	}
	for ti, root := range tr.roots {
		stack := []at{{root, 0}}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nd := tr.nodes[cur.node]
			if nd.posLo == nd.posHi {
				if size := int(nd.leafHi - nd.leafLo); size > opt.LeafSize {
					deepLeaves++
					if cur.depth != opt.MaxDepth {
						t.Errorf("seed %d tree %d: leaf of %d ids (LeafSize %d) at depth %d, MaxDepth is %d",
							seed, ti, size, opt.LeafSize, cur.depth, opt.MaxDepth)
					}
				}
				continue
			}
			for _, p := range tr.pos[nd.posLo:nd.posHi] {
				for _, bk := range tr.buckets[p.bLo:p.bHi] {
					stack = append(stack, at{bk.child, cur.depth + 1})
				}
			}
		}
	}
	return deepLeaves
}

// TestCandidateCountGate pins what the trees let through on the ledger's
// serve_read shape — 10 000 flat sets, λ = 0.5, default options, one seed:
// the candidates of 500 QueryAll calls, exactly, so that a change to the
// sampling, the leaf rules or the walk shows up as a count and not as a
// timing; under 5 % of the collection per query; each verified once.
func TestCandidateCountGate(t *testing.T) {
	const n, queries, wantCandidates = 10000, 500, 88045
	sets := flatShape().collection(n, 11)
	ix := Build(sets, 0.5, &Options{Seed: 42, Workers: -1})
	var total QueryStats
	var dst []Match
	for _, q := range sets[:queries] {
		var st QueryStats
		dst, st = ix.AppendAllWithStats(dst[:0], q)
		if st.Verified != st.Candidates {
			t.Fatalf("%d candidates but %d verifications", st.Candidates, st.Verified)
		}
		total.add(st)
	}
	if total.Candidates != wantCandidates {
		t.Errorf("%d queries reached %d candidates, pinned at %d", queries, total.Candidates, wantCandidates)
	}
	if perQuery := float64(total.Candidates) / queries; perQuery > 0.05*n {
		t.Errorf("%.0f candidates per query is over 5 %% of the %d sets", perQuery, n)
	}
}

// TestQueryZeroAllocs: steady-state Query and AppendAll (with a reused
// destination) allocate nothing, against the heap view and the mapped one
// (Query through its InPlace view, AppendAll through the lazy one).
func TestQueryZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	sets, _ := buildWorkload(2000, 0.8, 41)
	ix := Build(sets, 0.5, &Options{Seed: 42})
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := openMappedBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.InPlace()
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []struct {
		name      string
		query     func(q []uint32)
		appendAll func(dst []Match, q []uint32) []Match
	}{
		{"Index", func(q []uint32) { ix.Query(q) }, ix.AppendAll},
		{"Mapped", func(q []uint32) { in.Query(q) }, func(dst []Match, q []uint32) []Match {
			dst, _ = m.AppendAll(dst, q)
			return dst
		}},
	} {
		var dst []Match
		// Warm the scratch pool and the destination buffer to steady state.
		for i := 0; i < 50; i++ {
			view.query(sets[i])
			dst = view.appendAll(dst[:0], sets[i])
		}
		if len(dst) == 0 {
			t.Fatalf("%s: a self-query matched nothing", view.name)
		}
		qi := 0
		if n := testing.AllocsPerRun(200, func() {
			view.query(sets[qi%1000])
			qi++
		}); n != 0 {
			t.Errorf("%s.Query allocates %v/op, want 0", view.name, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			dst = view.appendAll(dst[:0], sets[qi%1000])
			qi++
		}); n != 0 {
			t.Errorf("%s.AppendAll allocates %v/op, want 0", view.name, n)
		}
	}
}

func BenchmarkQueryAll(b *testing.B) {
	sets, _ := buildWorkload(5000, 0.8, 15)
	ix := Build(sets, 0.6, &Options{Seed: 16})
	var dst []Match
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.AppendAll(dst[:0], sets[i%len(sets)])
	}
}

func BenchmarkBuild(b *testing.B) {
	sets := flatShape().collection(10000, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(sets, 0.5, &Options{Seed: uint64(i) + 1})
	}
}
