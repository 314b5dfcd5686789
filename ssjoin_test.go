package ssjoin

import (
	"math"
	"path/filepath"
	"testing"
)

// workload builds a test collection with planted similar pairs.
func workload(n int, seed uint64) [][]uint32 {
	sets := GenerateUniform(n, 20, 5000, seed)
	sets, _ = PlantSimilarPairs(sets, n/20, 0.6, seed+1)
	sets, _ = PlantSimilarPairs(sets, n/20, 0.85, seed+2)
	return sets
}

func TestAllAlgorithmsAgreeOnPrecision(t *testing.T) {
	sets := workload(400, 1)
	truth := BruteForce(sets, 0.5)
	truthSet := make(map[Pair]bool, len(truth))
	for _, p := range truth {
		truthSet[p] = true
	}
	for _, alg := range Algorithms() {
		got, _, err := Join(sets, 0.5, alg, &Options{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for _, p := range got {
			if !truthSet[p] {
				t.Fatalf("%s reported non-result pair %v", alg, p)
			}
		}
	}
}

func TestExactAlgorithmsComplete(t *testing.T) {
	sets := workload(400, 3)
	truth := BruteForce(sets, 0.6)
	for _, alg := range []Algorithm{AlgAllPairs, AlgPPJoin} {
		got, _, err := Join(sets, 0.6, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if Recall(got, truth) != 1 {
			t.Errorf("%s is not exact: recall %v", alg, Recall(got, truth))
		}
	}
}

func TestApproximateRecall(t *testing.T) {
	sets := workload(500, 4)
	truth := BruteForce(sets, 0.5)
	if len(truth) == 0 {
		t.Fatal("empty ground truth")
	}
	for _, alg := range []Algorithm{AlgCPSJoin, AlgMinHash} {
		got, _, err := Join(sets, 0.5, alg, &Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if r := Recall(got, truth); r < 0.9 {
			t.Errorf("%s recall %v < 0.9", alg, r)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, _, err := Join(nil, 0.5, "nope", nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestJoinRSPublic(t *testing.T) {
	r := [][]uint32{{1, 2, 3, 4}, {50, 51}}
	s := [][]uint32{{1, 2, 3, 5}, {60, 61}}
	got, _ := CPSJoinRS(r, s, 0.5, &Options{Seed: 1, Repetitions: 20})
	found := false
	for _, p := range got {
		if p.A == 0 && p.B == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("CPSJoinRS missed the (0,0) pair: %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sets := workload(50, 6)
	path := filepath.Join(t.TempDir(), "sets.txt")
	if err := SaveSets(path, sets); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(sets) {
		t.Fatalf("loaded %d sets, saved %d", len(back), len(sets))
	}
}

func TestCleanSets(t *testing.T) {
	sets := [][]uint32{{1, 2}, {1, 2}, {7}, {3, 4}}
	cleaned := CleanSets(sets)
	if len(cleaned) != 2 {
		t.Fatalf("CleanSets left %d sets, want 2", len(cleaned))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([][]uint32{{1, 2, 3}, {1, 2}})
	if s.NumSets != 2 || s.Universe != 3 || s.AvgSetSize != 2.5 || s.MaxSetSize != 3 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestGenerateProfile(t *testing.T) {
	for _, name := range ProfileNames() {
		sets, err := GenerateProfile(name, 500, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) < 300 {
			t.Errorf("%s: only %d sets", name, len(sets))
		}
	}
	if _, err := GenerateProfile("NOPE", 10, 1); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestGenerateTokens(t *testing.T) {
	sets, planted := GenerateTokens(100, 8)
	if len(sets) == 0 || len(planted) == 0 {
		t.Fatal("empty TOKENS dataset")
	}
	for _, p := range planted {
		if p[0] >= len(sets) || p[1] >= len(sets) {
			t.Fatal("planted index out of range")
		}
	}
}

func TestNormalizeSetAndJaccard(t *testing.T) {
	a := NormalizeSet([]uint32{3, 1, 2, 3})
	b := NormalizeSet([]uint32{2, 3, 4})
	if j := Jaccard(a, b); j != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5", j)
	}
}

func TestBraunBlanquetJoinPublic(t *testing.T) {
	sets := workload(400, 30)
	truth := BruteForceBB(sets, 0.5)
	if len(truth) == 0 {
		t.Fatal("no BB ground truth")
	}
	got, _ := BraunBlanquetJoin(sets, 0.5, &Options{Seed: 31})
	truthSet := make(map[Pair]bool, len(truth))
	for _, p := range truth {
		truthSet[p] = true
	}
	hits := 0
	for _, p := range got {
		if !truthSet[p] {
			t.Fatalf("false positive %v (BB=%v)", p, BraunBlanquet(sets[p.A], sets[p.B]))
		}
		hits++
	}
	if float64(hits) < 0.9*float64(len(truth)) {
		t.Errorf("BB recall %d/%d", hits, len(truth))
	}
}

func TestBraunBlanquetMeasure(t *testing.T) {
	a := []uint32{1, 2, 3, 4}
	b := []uint32{1, 2}
	if got := BraunBlanquet(a, b); got != 0.5 {
		t.Errorf("BraunBlanquet = %v, want 0.5", got)
	}
}

func TestCPSJoinParallelPublic(t *testing.T) {
	sets := workload(400, 32)
	ix := NewIndex(sets, &Options{Seed: 33})
	seq, _ := ix.CPSJoin(0.5, &Options{Seed: 33})
	par, _ := ix.CPSJoin(0.5, &Options{Seed: 33, Workers: 4})
	if len(seq) != len(par) {
		t.Fatalf("parallel %d pairs, sequential %d", len(par), len(seq))
	}
	seen := make(map[Pair]bool, len(seq))
	for _, p := range seq {
		seen[p] = true
	}
	for _, p := range par {
		if !seen[p] {
			t.Fatalf("parallel pair %v missing from sequential result", p)
		}
	}
}

func TestEmbedJaccardFamily(t *testing.T) {
	sets := workload(200, 9)
	emb := Embed(sets, 64, 10, JaccardFamily{})
	if len(emb) != len(sets) {
		t.Fatal("embedding changed collection size")
	}
	for _, e := range emb {
		if len(e) != 64 {
			t.Fatalf("embedded size %d, want 64", len(e))
		}
	}
	// Identical sets embed identically.
	dup := Embed([][]uint32{sets[0], sets[0]}, 64, 10, JaccardFamily{})
	if Jaccard(dup[0], dup[1]) != 1 {
		t.Error("identical sets embedded differently")
	}
}

func TestEmbeddedThreshold(t *testing.T) {
	// B = λ ⇔ J = λ/(2-λ). Compare with tolerance: Go folds the expected
	// constant expressions in arbitrary precision.
	if got, want := EmbeddedThreshold(0.5), 0.5/1.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("EmbeddedThreshold(0.5) = %v, want %v", got, want)
	}
	if got, want := EmbeddedThreshold(0.9), 0.9/1.1; math.Abs(got-want) > 1e-15 {
		t.Errorf("EmbeddedThreshold(0.9) = %v, want %v", got, want)
	}
}

func TestEmbeddedJoinFindsSimilarPairs(t *testing.T) {
	// Join via embedding: pairs similar under Jaccard must be found by
	// joining the embedded sets at the converted threshold.
	sets := GenerateUniform(300, 30, 20000, 11)
	sets, planted := PlantSimilarPairs(sets, 20, 0.85, 12)
	emb := Embed(sets, 128, 13, JaccardFamily{})
	got, _ := CPSJoin(emb, EmbeddedThreshold(0.7), &Options{Seed: 14})
	gotSet := make(map[Pair]bool)
	for _, p := range got {
		gotSet[p] = true
	}
	hits := 0
	for _, pl := range planted {
		if gotSet[Pair{A: pl[0], B: pl[1]}] {
			hits++
		}
	}
	if float64(hits) < 0.8*float64(len(planted)) {
		t.Errorf("embedded join found %d/%d planted pairs", hits, len(planted))
	}
}

func TestAngularFamilySimilarSets(t *testing.T) {
	// Two highly overlapping sets should agree on most SimHash bits.
	sets := GenerateUniform(10, 50, 100000, 15)
	sets, planted := PlantSimilarPairs(sets, 5, 0.9, 16)
	emb := Embed(sets, 256, 17, AngularFamily{})
	for _, pl := range planted {
		inter := 0
		a, b := emb[pl[0]], emb[pl[1]]
		m := make(map[uint32]bool)
		for _, v := range a {
			m[v] = true
		}
		for _, v := range b {
			if m[v] {
				inter++
			}
		}
		if frac := float64(inter) / 256; frac < 0.8 {
			t.Errorf("angular embedding agreement %v for J≈0.9 pair", frac)
		}
	}
}
