package cpindex

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/intset"
	"repro/internal/minhash"
)

// buildWorkload returns a collection plus query/target pairs at the given
// similarity.
func buildWorkload(n int, j float64, seed uint64) ([][]uint32, [][2]int) {
	ds := datagen.Uniform(n, 25, 50000, seed)
	planted := datagen.PlantPairs(ds, 40, j, seed+1)
	return ds.Sets, planted
}

func TestQueryFindsPlantedNeighbors(t *testing.T) {
	sets, planted := buildWorkload(2000, 0.75, 1)
	ix := Build(sets, 0.5, &Options{Seed: 2})
	found := 0
	valid := 0
	for _, p := range planted {
		q, target := sets[p[0]], p[1]
		if intset.Jaccard(q, sets[target]) < 0.5 {
			continue
		}
		valid++
		id, sim, ok := ix.Query(q)
		if !ok {
			continue
		}
		if sim < 0.5 {
			t.Fatalf("Query returned below-threshold result: %v", sim)
		}
		if intset.Jaccard(q, sets[id]) < 0.5 {
			t.Fatalf("Query similarity claim wrong for id %d", id)
		}
		found++
	}
	if valid == 0 {
		t.Fatal("no valid planted queries")
	}
	// Query sets are themselves indexed (J = 1 with themselves), so every
	// query must succeed.
	if found < valid {
		t.Errorf("only %d/%d queries found a neighbor", found, valid)
	}
}

func TestQueryNoNeighbor(t *testing.T) {
	sets, _ := buildWorkload(1000, 0.9, 3)
	ix := Build(sets, 0.8, &Options{Seed: 4})
	// A fresh random set over a disjoint token range has no neighbors.
	q := []uint32{1 << 30, 1<<30 + 5, 1<<30 + 9, 1<<30 + 12}
	if id, sim, ok := ix.Query(q); ok {
		t.Fatalf("found spurious neighbor %d (sim %v)", id, sim)
	}
}

func TestQueryAllRecall(t *testing.T) {
	sets, planted := buildWorkload(1500, 0.8, 5)
	ix := Build(sets, 0.6, &Options{Seed: 6})
	hits, valid := 0, 0
	for _, p := range planted {
		q, target := sets[p[0]], p[1]
		if intset.Jaccard(q, sets[target]) < 0.6 {
			continue
		}
		valid++
		for _, m := range ix.QueryAll(q) {
			if m.ID == target {
				hits++
				break
			}
		}
	}
	if valid == 0 {
		t.Fatal("no valid planted queries")
	}
	if float64(hits) < 0.9*float64(valid) {
		t.Errorf("QueryAll recall %d/%d below 0.9", hits, valid)
	}
}

func TestQueryAllOnlyAboveThreshold(t *testing.T) {
	sets, _ := buildWorkload(800, 0.7, 7)
	ix := Build(sets, 0.6, &Options{Seed: 8})
	for i := 0; i < 50; i++ {
		q := sets[i]
		for _, m := range ix.QueryAll(q) {
			if m.Sim < 0.6 {
				t.Fatalf("QueryAll returned below-threshold id %d", m.ID)
			}
			if got := intset.Jaccard(q, sets[m.ID]); got != m.Sim {
				t.Fatalf("QueryAll sim %v for id %d, exact is %v", m.Sim, m.ID, got)
			}
		}
	}
}

func TestSelfQuery(t *testing.T) {
	sets, _ := buildWorkload(500, 0.7, 9)
	ix := Build(sets, 0.9, &Options{Seed: 10})
	misses := 0
	for i := 0; i < 100; i++ {
		if _, sim, ok := ix.Query(sets[i]); !ok || sim < 0.9 {
			misses++
		}
	}
	// An identical set follows the query into every sampled child, so only
	// dead nodes can lose it: at s/λ = 1.11 one level deep a tree keeps it
	// with probability 0.67, ten trees all but surely.
	if misses > 0 {
		t.Errorf("%d/100 self-queries missed", misses)
	}
}

func TestEmptyQuery(t *testing.T) {
	sets, _ := buildWorkload(200, 0.7, 11)
	ix := Build(sets, 0.5, &Options{Seed: 12})
	if _, _, ok := ix.Query(nil); ok {
		t.Error("empty query found a neighbor")
	}
	if out := ix.QueryAll(nil); out != nil {
		t.Error("empty QueryAll returned results")
	}
}

func TestBuildStats(t *testing.T) {
	sets, _ := buildWorkload(1000, 0.7, 13)
	ix := Build(sets, 0.5, &Options{Seed: 14, Trees: 3})
	if ix.Nodes == 0 || ix.Leaves == 0 {
		t.Errorf("stats not populated: %+v", ix)
	}
	if ix.Leaves > ix.Nodes {
		t.Errorf("leaves %d > nodes %d", ix.Leaves, ix.Nodes)
	}
}

// TestSignAllIsPositionMajor: the trie builder's matrix has the join's
// layout, position p of set i at [p*n+i], the value Sign gives it, for any
// worker count.
func TestSignAllIsPositionMajor(t *testing.T) {
	sets, _ := buildWorkload(700, 0.7, 15) // several 256-set chunks
	signer := minhash.NewSigner(24, 16)
	n := len(sets)
	for _, workers := range []int{1, 2, 4} {
		sigs := signAll(signer, sets, workers)
		for i, set := range sets {
			for p, want := range signer.Sign(set) {
				if got := sigs[p*n+i]; got != want {
					t.Fatalf("workers=%d: sigs[%d*n+%d] = %d, Sign gives %d", workers, p, i, got, want)
				}
			}
		}
	}
}

func TestInvalidLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build with lambda=1 did not panic")
		}
	}()
	Build(nil, 1, nil)
}

func BenchmarkQuery(b *testing.B) {
	sets, _ := buildWorkload(5000, 0.8, 15)
	ix := Build(sets, 0.6, &Options{Seed: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(sets[i%len(sets)])
	}
}
