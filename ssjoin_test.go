package ssjoin

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/intset"
	"repro/internal/race"
)

// workload builds a test collection with planted similar pairs.
func workload(n int, seed uint64) [][]uint32 {
	sets := GenerateUniform(n, 20, 5000, seed)
	sets, _ = PlantSimilarPairs(sets, n/20, 0.6, seed+1)
	sets, _ = PlantSimilarPairs(sets, n/20, 0.85, seed+2)
	return sets
}

// TestOptionsAreWhatCallersSet: the facade's option structs hold exactly
// the fields the commands and examples set. The paper's parameters (t,
// limit, ε, sketch width, δ, k, leaf size) are swept on the internal
// options, where the experiments set them; a field added here that no
// caller sets is surface to document and keep for nothing.
func TestOptionsAreWhatCallersSet(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{Options{}, []string{"Seed", "Repetitions", "TargetRecall", "Workers"}},
		{SearchOptions{}, []string{"Trees", "Seed", "Workers"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields %v, want %v", typ.Name(), got, c.want)
		}
	}
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

// TestEmbeddedThreshold checks the conversion cell by cell: for every
// embedding size t <= 1024 and every overlap c, two embedded sets sharing
// c tokens meet the Jaccard threshold exactly when c/t meets λ, at λ = c/t
// and one ulp above it, where a rounded λ/(2−λ) drops or admits a pair.
// The cells cost Θ(t³) merge steps, so -short and the race build stop at
// t = 256.
func TestEmbeddedThreshold(t *testing.T) {
	maxT := 1024
	if testing.Short() || race.Enabled {
		maxT = 256
	}
	base := make([]uint32, 2*maxT)
	for i := range base {
		base[i] = uint32(i)
	}
	misses := 0
	for size := 1; size <= maxT; size++ {
		x := base[:size]
		// sharing(c) is an embedded set with exactly c tokens of x.
		sharing := func(c int) []uint32 { return base[size-c : 2*size-c] }
		passes := func(c int, th float64) bool {
			_, ok := intset.JaccardAtLeast(x, sharing(c), th)
			return ok
		}
		for c := 1; c < size; c++ {
			at := float64(c) / float64(size)
			above := math.Nextafter(at, 1)
			if th := EmbeddedThreshold(at, size); !passes(c, th) || passes(c-1, th) {
				if misses++; misses <= 10 {
					t.Errorf("t=%d λ=%d/%d: Jaccard threshold %v, want the %d-overlap pair and not the %d-overlap one", size, c, size, th, c, c-1)
				}
			}
			if th := EmbeddedThreshold(above, size); !passes(c+1, th) || passes(c, th) {
				if misses++; misses <= 10 {
					t.Errorf("t=%d λ=%d/%d+1ulp: Jaccard threshold %v, want the %d-overlap pair and not the %d-overlap one", size, c, size, th, c+1, c)
				}
			}
		}
	}
	if misses > 0 {
		t.Errorf("%d (t, λ) cells decided differently from Braun-Blanquet", misses)
	}
}

func TestEmbeddedJoinFindsSimilarPairs(t *testing.T) {
	// Join via embedding: pairs similar under Jaccard must be found by
	// joining the embedded sets at the converted threshold.
	sets := GenerateUniform(300, 30, 20000, 11)
	sets, planted := PlantSimilarPairs(sets, 20, 0.85, 12)
	emb := Embed(sets, 128, 13, JaccardFamily{})
	got, _ := CPSJoin(emb, EmbeddedThreshold(0.7, 128), &Options{Seed: 14})
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
