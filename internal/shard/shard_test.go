package shard

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/cpindex"
	"repro/internal/datagen"
	"repro/internal/intset"
)

func sortMatches(ms []cpindex.Match) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
}

// workload returns a collection with planted near-duplicate pairs.
func workload(n int, j float64, seed uint64) ([][]uint32, [][2]int) {
	ds := datagen.Uniform(n, 25, 50000, seed)
	planted := datagen.PlantPairs(ds, 40, j, seed+1)
	return ds.Sets, planted
}

func equalMatches(t *testing.T, a, b []cpindex.Match) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesStandaloneShards pins the subsystem's core contract:
// a sharded index is exactly the union of standalone cpindex builds over
// its partitions with the per-shard seeds from SeedFor — the fan-out and
// merge machinery adds nothing and loses nothing.
func TestShardedMatchesStandaloneShards(t *testing.T) {
	sets, _ := workload(1200, 0.8, 101)
	const lambda, shards = 0.5, 3
	const seed = 7
	x := Build(sets, lambda, &Options{Shards: shards, Seed: seed, Workers: 4})

	ranges := ContiguousRanges(len(sets), shards)
	standalone := make([]*cpindex.Index, shards)
	for k, r := range ranges {
		standalone[k] = cpindex.Build(sets[r[0]:r[1]], lambda, &cpindex.Options{Seed: SeedFor(seed, k)})
	}

	for qi := 0; qi < 200; qi++ {
		q := sets[qi]
		var want []cpindex.Match
		for k, r := range ranges {
			for _, m := range standalone[k].QueryAll(q) {
				want = append(want, cpindex.Match{ID: m.ID + r[0], Sim: m.Sim})
			}
		}
		sortMatches(want)
		if got := x.QueryAllErr(q); !equalMatches(t, got, want) {
			t.Fatalf("query %d: sharded QueryAll %v != standalone merge %v", qi, got, want)
		}
	}
}

// TestQueryBatchDeterministic checks the determinism contract: for every
// shard count, the same seed and options yield identical batch results at
// any worker count, and batches equal per-query QueryAll.
func TestQueryBatchDeterministic(t *testing.T) {
	sets, _ := workload(900, 0.8, 103)
	queries := sets[:300]
	for _, shards := range []int{1, 2, 3, 5} {
		var base [][]cpindex.Match
		for _, workers := range []int{0, 1, 2, 4, 8} {
			x := Build(sets, 0.5, &Options{Shards: shards, Seed: 11, Workers: workers})
			got := x.QueryBatchErr(queries)
			if len(got) != len(queries) {
				t.Fatalf("shards=%d workers=%d: %d results for %d queries", shards, workers, len(got), len(queries))
			}
			if base == nil {
				base = got
				// The batch must agree with one-at-a-time queries.
				for i, q := range queries[:50] {
					if !equalMatches(t, got[i], x.QueryAllErr(q)) {
						t.Fatalf("shards=%d: batch result %d differs from QueryAll", shards, i)
					}
				}
				continue
			}
			for i := range got {
				if !equalMatches(t, got[i], base[i]) {
					t.Fatalf("shards=%d workers=%d: query %d differs from sequential run", shards, workers, i)
				}
			}
		}
	}
}

func TestQueryBestAcrossShards(t *testing.T) {
	sets, planted := workload(1500, 0.85, 105)
	x := Build(sets, 0.6, &Options{Shards: 4, Seed: 13, Workers: 2})
	found := 0
	for _, p := range planted {
		q := sets[p[0]]
		if intset.Jaccard(q, sets[p[1]]) < 0.6 {
			continue
		}
		id, sim, ok := mustQuery(t, x, q)
		if !ok {
			t.Fatalf("query %d found nothing despite an indexed neighbor (itself)", p[0])
		}
		if sim < 0.6 || intset.Jaccard(q, sets[id]) != sim {
			t.Fatalf("query %d: invalid result id=%d sim=%v", p[0], id, sim)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no valid planted queries")
	}
}

// TestNarrowedBestIsAllsTop pins the best-match contract at every
// threshold — the default (0), λ itself and above it — on one shard and on
// four: a best-match query finds a match exactly when the all-matches query
// does, and its Best is the top of that list (score descending, lower id on
// ties). A walk that stopped at the first tree with any match over λ would
// return a lower similarity, or a higher id, whenever a later tree reaches
// a better match. Clusters of perturbed copies at λ = 0.3 put many matches
// just above and below each threshold, and ties among them.
func TestNarrowedBestIsAllsTop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	perturb := func(base []uint32) []uint32 {
		out := append([]uint32(nil), base...)
		for n := 2 + r.Intn(3); n > 0; n-- {
			out[r.Intn(len(out))] = uint32(r.Intn(5000))
		}
		return intset.Normalize(out)
	}
	var sets, queries [][]uint32
	for b := 0; b < 300; b++ {
		base := make([]uint32, 12)
		for i := range base {
			base[i] = uint32(r.Intn(5000))
		}
		base = intset.Normalize(base)
		for v := 0; v < 5; v++ {
			sets = append(sets, perturb(base))
		}
		queries = append(queries, perturb(base))
	}
	for _, shards := range []int{1, 4} {
		x := Build(sets, 0.3, &Options{Shards: shards, Seed: 3})
		for _, th := range []float64{0, 0.3, 0.5, 0.6, 0.7} {
			checkBestIsAllsTop(t, x, queries, th)
		}
	}
}

func checkBestIsAllsTop(t *testing.T, x *Index, queries [][]uint32, th float64) {
	t.Helper()
	for qi, q := range queries {
		all, err := x.Search(Request{Set: q, All: true, Threshold: th}, nil)
		if err != nil {
			t.Fatal(err)
		}
		best, err := x.Search(Request{Set: q, Threshold: th}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := noMatch
		for _, m := range all.Matches { // ascending ids: a strict > keeps the lower id of a tie
			if !want.Found || m.Sim > want.Best.Sim {
				want.Best, want.Found = m, true
			}
		}
		if best.Found != want.Found || best.Best != want.Best {
			t.Fatalf("%d shards, threshold %v, query %d: best-match %+v, the top of the all-matches answer is %+v",
				len(x.shards), th, qi, best, want)
		}
	}
}

func TestHashPartitionCoversAllIDs(t *testing.T) {
	sets, _ := workload(800, 0.8, 107)
	x := Build(sets, 0.7, &Options{Shards: 5, HashPartition: true, Seed: 17})
	st := x.Stats()
	if st.Shards != 5 {
		t.Fatalf("got %d shards, want 5", st.Shards)
	}
	total := 0
	for _, n := range st.ShardSizes {
		total += n
	}
	if total != len(sets) {
		t.Fatalf("shard sizes sum to %d, want %d", total, len(sets))
	}
	// Every set must be reachable under its global id. (A self-query is
	// lost only if every tree dies above the set; at these seeds none is.)
	for i := 0; i < len(sets); i += 7 {
		ms := x.QueryAllErr(sets[i])
		self := false
		for _, m := range ms {
			if m.ID == i {
				self = true
			}
			if intset.Jaccard(sets[i], sets[m.ID]) != m.Sim {
				t.Fatalf("global id mapping broken: id %d sim %v", m.ID, m.Sim)
			}
		}
		if !self {
			t.Fatalf("self-query %d did not find itself", i)
		}
	}
}

func TestAddBufferSealAndQuery(t *testing.T) {
	sets, _ := workload(600, 0.8, 109)
	extra, _ := workload(150, 0.8, 211)
	x := Build(sets, 0.6, &Options{Shards: 2, Seed: 19, MergeThreshold: 100, Workers: 2})

	// Buffered appends are findable immediately, under their global ids.
	ids := x.Add(extra[:60])
	for i, id := range ids {
		if id != len(sets)+i {
			t.Fatalf("global id %d, want %d", id, len(sets)+i)
		}
	}
	st := x.Stats()
	if st.Shards != 2 || st.Buffered != 60 || st.Merges != 0 {
		t.Fatalf("unexpected stats after buffer: %+v", st)
	}
	for i, q := range extra[:60] {
		id, sim, ok := mustQuery(t, x, q)
		if !ok || sim != 1.0 || id != len(sets)+i {
			t.Fatalf("buffered self-query %d: id=%d sim=%v ok=%v", i, id, sim, ok)
		}
	}

	// Crossing the threshold seals the buffer into a third shard.
	x.Add(extra[60:])
	st = x.Stats()
	if st.Shards != 3 || st.Buffered != 0 || st.Merges != 1 {
		t.Fatalf("unexpected stats after seal: %+v", st)
	}
	if st.Sets != len(sets)+len(extra) {
		t.Fatalf("total %d, want %d", st.Sets, len(sets)+len(extra))
	}
	// Sealed appends stay findable: an identical set follows the query into
	// every sampled child (TestSealedDuplicateFound runs this over seeds).
	for i, q := range extra {
		found := false
		for _, m := range x.QueryAllErr(q) {
			if m.ID == len(sets)+i {
				found = true
			}
		}
		if !found {
			t.Fatalf("sealed self-query %d lost", i)
		}
	}

	// Flush seals a fresh partial buffer on demand.
	x.Add(extra[:10])
	x.Flush()
	st = x.Stats()
	if st.Shards != 4 || st.Buffered != 0 || st.Merges != 2 {
		t.Fatalf("unexpected stats after flush: %+v", st)
	}
}

// TestAddDeterministicAcrossWorkers: the same build + Add sequence yields
// identical results for any worker count, including across a seal.
func TestAddDeterministicAcrossWorkers(t *testing.T) {
	sets, _ := workload(500, 0.8, 113)
	extra, _ := workload(120, 0.8, 223)
	var base [][]cpindex.Match
	for _, workers := range []int{0, 3, 8} {
		x := Build(sets, 0.5, &Options{Shards: 3, Seed: 23, MergeThreshold: 80, Workers: workers})
		x.Add(extra)
		got := x.QueryBatchErr(append(sets[:100:100], extra...))
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			if !equalMatches(t, got[i], base[i]) {
				t.Fatalf("workers=%d: query %d differs after Add", workers, i)
			}
		}
	}
}

func TestConcurrentAddAndQuery(t *testing.T) {
	sets, _ := workload(400, 0.8, 115)
	extra, _ := workload(200, 0.8, 227)
	x := Build(sets, 0.6, &Options{Shards: 2, Seed: 29, MergeThreshold: 50, Workers: 2})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range extra {
			x.Add(extra[i : i+1])
		}
	}()
	go func() {
		defer wg.Done()
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < len(sets); i += 5 {
				if _, sim, ok := mustQuery(t, x, sets[i]); !ok || sim < 0.6 {
					t.Errorf("self-query %d failed during concurrent adds", i)
					return
				}
			}
			x.QueryBatchErr(sets[:50])
			x.Stats()
		}
	}()
	wg.Wait()
	if st := x.Stats(); st.Sets != len(sets)+len(extra) || st.Merges < 3 {
		t.Fatalf("unexpected final stats: %+v", st)
	}
}

func TestEdgeCases(t *testing.T) {
	// Empty collection: queries miss, Add still works.
	x := Build(nil, 0.5, &Options{Shards: 4, Seed: 31})
	if _, _, ok := mustQuery(t, x, []uint32{1, 2, 3}); ok {
		t.Error("query against empty index found a neighbor")
	}
	if ms := x.QueryAllErr(nil); ms != nil {
		t.Errorf("empty QueryAll returned %v", ms)
	}
	ids := x.Add([][]uint32{{1, 2, 3}})
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("Add on empty index assigned ids %v", ids)
	}
	if id, sim, ok := mustQuery(t, x, []uint32{1, 2, 3}); !ok || id != 0 || sim != 1.0 {
		t.Fatalf("buffered set not found: id=%d sim=%v ok=%v", id, sim, ok)
	}

	// More shards than sets: clamped, everything reachable.
	small := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
	y := Build(small, 0.5, &Options{Shards: 16, Seed: 37})
	if st := y.Stats(); st.Shards != 3 {
		t.Fatalf("got %d shards for 3 sets, want 3", st.Shards)
	}
	for i, q := range small {
		if id, _, ok := mustQuery(t, y, q); !ok || id != i {
			t.Fatalf("self-query %d returned id=%d ok=%v", i, id, ok)
		}
	}

	// Invalid lambda panics like cpindex.
	defer func() {
		if recover() == nil {
			t.Error("Build with lambda=1 did not panic")
		}
	}()
	Build(small, 1, nil)
}

// TestAddEmptySetPanicsBeforeMutation: empty sets cannot be MinHash-signed
// at seal time, so Add must refuse them up front and leave no trace.
func TestAddEmptySetPanics(t *testing.T) {
	sets := [][]uint32{{1, 2}, {3, 4}}
	x := Build(sets, 0.5, &Options{Shards: 1, Seed: 43, MergeThreshold: 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add of an empty set did not panic")
			}
		}()
		x.Add([][]uint32{{5, 6}, {}})
	}()
	if st := x.Stats(); st.Sets != 2 || st.Buffered != 0 {
		t.Fatalf("rejected Add mutated state: %+v", st)
	}
	// Subsequent valid adds still seal cleanly.
	x.Add([][]uint32{{5, 6}, {7, 8}})
	if st := x.Stats(); st.Merges != 1 || st.Sets != 4 {
		t.Fatalf("seal after rejected Add broken: %+v", st)
	}
}

func TestContiguousRanges(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{10, 3, 3}, {3, 16, 3}, {0, 4, 1}, {7, 7, 7},
	} {
		ranges := ContiguousRanges(tc.n, tc.k)
		if len(ranges) != tc.want {
			t.Fatalf("ContiguousRanges(%d,%d): %d ranges, want %d", tc.n, tc.k, len(ranges), tc.want)
		}
		next := 0
		for _, r := range ranges {
			if r[0] != next || r[1] < r[0] {
				t.Fatalf("ContiguousRanges(%d,%d): bad range %v", tc.n, tc.k, r)
			}
			next = r[1]
		}
		if next != tc.n {
			t.Fatalf("ContiguousRanges(%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.k, next, tc.n)
		}
	}
}
