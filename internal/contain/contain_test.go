package contain

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/race"
)

func randomSet(rng *rand.Rand, minLen, maxLen, universe int) []uint32 {
	n := minLen + rng.Intn(maxLen-minLen+1)
	s := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, uint32(rng.Intn(universe)))
	}
	return intset.Normalize(s)
}

// subsetOf returns a random subset of set covering roughly frac of it.
func subsetOf(rng *rand.Rand, set []uint32, frac float64) []uint32 {
	out := make([]uint32, 0, len(set))
	for _, tok := range set {
		if rng.Float64() < frac {
			out = append(out, tok)
		}
	}
	return out
}

func buildCorpus(rng *rand.Rand, n int) [][]uint32 {
	sets := make([][]uint32, 0, n)
	for i := 0; i < n; i++ {
		// Spread across cardinality bands: sizes 2..200.
		sets = append(sets, randomSet(rng, 2, 200, 4000))
	}
	return sets
}

func TestBandFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1023: 9, 1024: 10}
	for n, want := range cases {
		if got := bandFor(n); got != want {
			t.Errorf("bandFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEquivalentJaccard(t *testing.T) {
	// t=1, u=|q|: only exact duplicates qualify, ξ = 1.
	if xi := EquivalentJaccard(10, 10, 1); xi != 1 {
		t.Fatalf("ξ(10,10,1) = %v, want 1", xi)
	}
	// Larger upper bounds relax the equivalent Jaccard threshold.
	hi, lo := EquivalentJaccard(10, 10, 0.5), EquivalentJaccard(10, 1000, 0.5)
	if lo >= hi {
		t.Fatalf("ξ must decrease with the upper bound: ξ(u=10)=%v ξ(u=1000)=%v", hi, lo)
	}
	// Soundness on random instances: any y with |y| <= u and
	// C(q,y) >= t has J(q,y) >= ξ.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		q := randomSet(rng, 2, 40, 200)
		y := randomSet(rng, 1, 60, 200)
		if len(q) == 0 || len(y) == 0 {
			continue
		}
		th := 0.1 + 0.9*rng.Float64()
		c := intset.Containment(q, y)
		if c < th {
			continue
		}
		xi := EquivalentJaccard(len(q), len(y), th)
		if j := intset.Jaccard(q, y); j < xi-1e-12 {
			t.Fatalf("C=%v >= t=%v but J=%v < ξ=%v (|q|=%d |y|=%d)", c, th, j, xi, len(q), len(y))
		}
	}
}

// TestQueryRecall checks candidate generation against brute-force
// ground truth: precision is not promised (callers verify), but recall
// of true matches must land near TargetProb.
func TestQueryRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := buildCorpus(rng, 1500)
	ix := Build(sets, Options{Seed: 99})
	truth, hit := 0, 0
	for i := 0; i < 300; i++ {
		// Queries are subsets of indexed sets — the domain-discovery
		// workload — so true matches exist.
		base := sets[rng.Intn(len(sets))]
		q := subsetOf(rng, base, 0.8)
		if len(q) == 0 {
			continue
		}
		th := 0.5 + 0.4*rng.Float64()
		cands := make(map[int32]bool)
		for _, lid := range ix.Query(q, th) {
			cands[lid] = true
		}
		for j, y := range sets {
			if _, ok := intset.ContainmentAtLeast(q, y, th); ok {
				truth++
				if cands[int32(j)] {
					hit++
				}
			}
		}
	}
	if truth == 0 {
		t.Fatal("ground truth is empty; workload generator broken")
	}
	recall := float64(hit) / float64(truth)
	if recall < 0.85 {
		t.Fatalf("candidate recall %.3f below 0.85 (%d/%d)", recall, hit, truth)
	}
	t.Logf("candidate recall %.3f (%d/%d true matches)", recall, hit, truth)
}

// TestQueryDeterministicAcrossPartitions pins the sharding contract:
// because seeds and cardinality-band boundaries are global, whether a
// given set is a candidate for a given query is independent of which
// partition of the collection it is indexed in.
func TestQueryDeterministicAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := buildCorpus(rng, 600)
	opts := Options{Seed: 123}
	whole := Build(sets, opts)
	// Partition round-robin into 3 sub-indexes.
	var parts [3][][]uint32
	var gids [3][]int
	for i, s := range sets {
		parts[i%3] = append(parts[i%3], s)
		gids[i%3] = append(gids[i%3], i)
	}
	var subs [3]*Index
	for p := range parts {
		subs[p] = Build(parts[p], opts)
	}
	for i := 0; i < 100; i++ {
		q := subsetOf(rng, sets[rng.Intn(len(sets))], 0.7)
		if len(q) == 0 {
			continue
		}
		th := 0.4 + 0.5*rng.Float64()
		want := make(map[int]bool)
		for _, lid := range whole.Query(q, th) {
			want[int(lid)] = true
		}
		got := make(map[int]bool)
		for p := range subs {
			for _, lid := range subs[p].Query(q, th) {
				got[gids[p][lid]] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("candidate sets differ across partitioning: %d vs %d", len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("candidate %d missing from partitioned indexes", id)
			}
		}
	}
}

func TestQueryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := buildCorpus(rng, 400)
	sets = append(sets, nil) // empty set rides along, never a candidate
	ix := Build(sets, Options{Seed: 17})
	for i := 0; i < 200; i++ {
		q := randomSet(rng, 1, 50, 4000)
		th := 0.2 + 0.8*rng.Float64()
		cands := ix.Query(q, th)
		for j := 1; j < len(cands); j++ {
			if cands[j] <= cands[j-1] {
				t.Fatalf("candidates not sorted/deduped: %v", cands)
			}
		}
		for _, lid := range cands {
			if int(lid) == len(sets)-1 {
				t.Fatal("empty set emitted as a candidate")
			}
		}
	}
	if got := ix.Query(nil, 0.5); got != nil {
		t.Fatalf("empty query returned candidates: %v", got)
	}
}

func TestQueryPanicsOnBadThreshold(t *testing.T) {
	ix := Build([][]uint32{{1, 2}}, Options{})
	for _, bad := range []float64{0, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("threshold %v must panic", bad)
				}
			}()
			ix.Query([]uint32{1}, bad)
		}()
	}
}

// ledgerShard is the first of the four contiguous 10 000-set shards of the
// ledger's skew catalogue: Zipf tokens, sizes 2 to 2000 (cardinality bands
// 1 to 10), every tenth set a near-copy of its predecessor.
var ledgerShard = sync.OnceValue(func() [][]uint32 {
	return datagen.LedgerShape(true, 40000, 1)[:10000]
})

// refBuckets is the construction the sorted orders replaced, kept as the
// reference Query is checked against: one hash bucket per (cardinality
// band, r, LSH band position, r signature rows), every set in 2T−1 of them.
func refBuckets(ix *Index, sets [][]uint32) map[refKey][]int32 {
	buckets := make(map[refKey][]int32)
	for i, set := range sets {
		for r := 1; r <= ix.t && len(set) > 0; r <<= 1 {
			for bi := 0; bi < ix.t/r; bi++ {
				k := newRefKey(bandFor(len(set)), r, bi, ix.rows(int32(i), bi*r, r))
				buckets[k] = append(buckets[k], int32(i))
			}
		}
	}
	return buckets
}

type refKey struct {
	band, r, bi int
	rows        uint64 // FNV-1a of the r signature rows
}

func newRefKey(band, r, bi int, rows []uint32) refKey {
	h := uint64(14695981039346656037)
	for _, w := range rows {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return refKey{band, r, bi, h}
}

func refQuery(ix *Index, buckets map[refKey][]int32, q []uint32, t float64) (out []int32) {
	sig := ix.signer.Sign(q)
	for j := 0; j < maxBands; j++ {
		hi := 1<<(j+1) - 1
		if float64(min(len(q), hi))/float64(len(q)) < t {
			continue
		}
		r := ix.chooseR(EquivalentJaccard(len(q), hi, t))
		for bi := 0; bi < ix.t/r; bi++ {
			out = append(out, buckets[newRefKey(j, r, bi, sig[bi*r:(bi+1)*r])]...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestQueryMatchesHashBuckets holds the sorted orders to the candidate
// lists of the hash tables they replaced, id for id: on the ledger shard
// plus an empty set and a set alone in its cardinality band, at the default
// T, at a T that is no power of two (a persisted section may carry any) and
// at T = 1, where every band is one row.
func TestQueryMatchesHashBuckets(t *testing.T) {
	sets := slices.Clone(ledgerShard())
	rng := rand.New(rand.NewSource(21))
	loner := randomSet(rng, 6000, 6000, 1<<20) // > 4096 distinct tokens: band 12, alone
	empty := len(sets)
	sets = append(sets, nil, loner)
	nq := 2000
	if testing.Short() || race.Enabled {
		nq = 200
	}
	queries := [][]uint32{loner, subsetOf(rng, loner, 0.9), {sets[0][0]}}
	for i := 0; len(queries) < nq; i++ {
		q := sets[rng.Intn(len(sets)-2)] // an indexed set itself: every row collides
		switch i % 3 {
		case 1: // the domain-search probe: most of an indexed set
			q = subsetOf(rng, q, 0.7)
		case 2: // tokens of two sets mixed
			q = intset.Normalize(slices.Concat(subsetOf(rng, q, 0.5), sets[rng.Intn(len(sets)-2)]))
		}
		if len(q) > 0 {
			queries = append(queries, q)
		}
	}
	for _, T := range []int{DefaultT, 48, 1} {
		ix := Build(sets, Options{T: T, Seed: 7})
		ref := refBuckets(ix, sets)
		total, lonerHits := 0, 0
		for _, q := range queries {
			for _, th := range []float64{0.3, 0.5, 0.8, 1.0} {
				got, want := ix.Query(q, th), refQuery(ix, ref, q, th)
				if !slices.Equal(got, want) {
					t.Fatalf("T=%d |q|=%d t=%v: %d candidates, the hash buckets give %d\n got %v\nwant %v",
						T, len(q), th, len(got), len(want), got, want)
				}
				if slices.Contains(got, int32(empty)) {
					t.Fatalf("T=%d: the empty set is a candidate", T)
				}
				if slices.Contains(got, int32(empty+1)) {
					lonerHits++
				}
				total += len(got)
			}
		}
		if total == 0 || lonerHits == 0 {
			t.Fatalf("T=%d: %d candidates in all, the one-member band answered %d times: the comparison is vacuous", T, total, lonerHits)
		}
		t.Logf("T=%d: %d queries x 4 thresholds, %d candidate ids identical", T, len(queries), total)
	}
	// The one-token query above, against the ledger's widest band (sizes
	// up to 2047), has an equivalent Jaccard threshold far below what even
	// one row per LSH band can promise: r falls back to 1, so that path is
	// among the ones compared.
	ix := &Index{t: DefaultT}
	if xi := EquivalentJaccard(1, 2047, 0.3); ix.chooseR(xi) != 1 || CollisionProb(xi, 1, DefaultT) >= TargetProb {
		t.Fatalf("chooseR(%v) = %d with collision probability %v: not the r = 1 fallback", xi, ix.chooseR(xi), CollisionProb(xi, 1, DefaultT))
	}
}

// TestBuildSize is the gate on what the structure costs: a set is its
// signature row and one int32 per start row, in a handful of allocations
// per cardinality band. The hash tables it replaced allocated 885 000
// objects and kept 6.3 KB per set on this shard.
func TestBuildSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations are not the structure's")
	}
	sets := ledgerShard()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := Build(sets, Options{Seed: 7})
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	perSet := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(sets))
	t.Logf("Build over %d sets: %d allocations, %d B retained per set", ix.Len(), allocs, perSet)
	if allocs > 2000 {
		t.Errorf("Build allocated %d objects, want <= 2000", allocs)
	}
	if perSet > 700 {
		t.Errorf("Build retains %d B per set, want <= 700 (256 of signature, 256 of orders)", perSet)
	}
	runtime.KeepAlive(ix)
}

var benchSink int

func BenchmarkBuild(b *testing.B) {
	sets := ledgerShard()
	b.ReportAllocs()
	for b.Loop() {
		benchSink += Build(sets, Options{Seed: 7}).Len()
	}
}

func BenchmarkQuery(b *testing.B) {
	sets := ledgerShard()
	ix := Build(sets, Options{Seed: 7})
	rng := rand.New(rand.NewSource(3))
	queries := make([][]uint32, 512)
	for i := range queries {
		queries[i] = subsetOf(rng, sets[rng.Intn(len(sets))], 0.7)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		benchSink += len(ix.Query(queries[i%len(queries)], 0.5))
		i++
	}
}
