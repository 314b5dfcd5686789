package ssjoin

import (
	"sync"
	"testing"
)

func TestSearchIndexQuery(t *testing.T) {
	sets := GenerateUniform(2000, 25, 50000, 40)
	sets, planted := PlantSimilarPairs(sets, 30, 0.8, 41)
	ix := NewSearchIndex(sets, 0.6, &SearchOptions{Seed: 42})
	for _, p := range planted {
		q := sets[p[0]]
		if Jaccard(q, sets[p[1]]) < 0.6 {
			continue
		}
		id, sim, ok := ix.Query(q)
		if !ok {
			t.Fatalf("query %d found nothing despite an indexed neighbor", p[0])
		}
		if sim < 0.6 || Jaccard(q, sets[id]) < 0.6 {
			t.Fatalf("query %d returned invalid result id=%d sim=%v", p[0], id, sim)
		}
	}
}

func TestSearchIndexQueryAllPrecision(t *testing.T) {
	sets := GenerateUniform(1000, 20, 30000, 43)
	ix := NewSearchIndex(sets, 0.7, &SearchOptions{Seed: 44, Trees: 5})
	for i := 0; i < 40; i++ {
		for _, m := range ix.QueryAll(sets[i]) {
			if Jaccard(sets[i], sets[m.ID]) < 0.7 || m.Sim != Jaccard(sets[i], sets[m.ID]) {
				t.Fatalf("QueryAll returned below-threshold or mis-scored match %+v", m)
			}
		}
	}
}

func TestSearchIndexConcurrentQueries(t *testing.T) {
	sets := GenerateClustered(100, 3, 20, 100000, 0.05, 46)
	ix := NewSearchIndex(sets, 0.6, &SearchOptions{Seed: 47})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sets); i += 8 {
				if _, sim, ok := ix.Query(sets[i]); !ok || sim < 0.6 {
					t.Errorf("self-query %d failed", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestGenerateClustered(t *testing.T) {
	sets := GenerateClustered(50, 4, 20, 100000, 0.1, 48)
	if len(sets) != 200 {
		t.Fatalf("%d sets, want 200", len(sets))
	}
	// Within-cluster pairs join at a moderate threshold.
	truth := BruteForce(sets, 0.5)
	if len(truth) < 150 {
		t.Errorf("only %d within-cluster pairs at λ=0.5", len(truth))
	}
	got, _ := CPSJoin(sets, 0.5, &Options{Seed: 49})
	if r := Recall(got, truth); r < 0.9 {
		t.Errorf("clustered recall %v", r)
	}
}

func TestSearchIndexMiss(t *testing.T) {
	sets := GenerateUniform(500, 20, 30000, 45)
	ix := NewSearchIndex(sets, 0.8, nil)
	q := NormalizeSet([]uint32{1 << 31, 1<<31 + 3, 1<<31 + 9})
	if _, _, ok := ix.Query(q); ok {
		t.Error("query over disjoint tokens found a neighbor")
	}
}
