package datagen

import (
	"math"
	"testing"

	"repro/internal/intset"
	"repro/internal/snapshot"
	"repro/internal/tabhash"
)

func TestTokensShape(t *testing.T) {
	cfg := DefaultTokensConfig(200, 1) // scaled-down cap for test speed
	cfg.PairsPerJ = 5
	ds, planted := Tokens(cfg)
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
	if len(ds.Sets) < 100 {
		t.Fatalf("only %d sets generated", len(ds.Sets))
	}
	if len(planted) != 5*len(cfg.PlantedJs) {
		t.Fatalf("planted %d pairs, want %d", len(planted), 5*len(cfg.PlantedJs))
	}
	// Token cap respected.
	usage := make(map[uint32]int)
	for _, set := range ds.Sets {
		for _, tok := range set {
			usage[tok]++
			if int(tok) >= cfg.Universe {
				t.Fatalf("token %d outside universe %d", tok, cfg.Universe)
			}
		}
	}
	for tok, n := range usage {
		if n > cfg.TokenCap {
			t.Fatalf("token %d used %d times, cap %d", tok, n, cfg.TokenCap)
		}
	}
}

func TestTokensPlantedSimilarity(t *testing.T) {
	cfg := DefaultTokensConfig(300, 2)
	cfg.PairsPerJ = 8
	ds, planted := Tokens(cfg)
	// Average Jaccard of planted pairs per target value should be within
	// a few points of the target (they are sampled with that expectation).
	perJ := make(map[float64][]float64)
	for i, pair := range planted {
		target := cfg.PlantedJs[i/cfg.PairsPerJ]
		j := intset.Jaccard(ds.Sets[pair[0]], ds.Sets[pair[1]])
		perJ[target] = append(perJ[target], j)
	}
	for target, js := range perJ {
		sum := 0.0
		for _, j := range js {
			sum += j
		}
		mean := sum / float64(len(js))
		if math.Abs(mean-target) > 0.12 {
			t.Errorf("planted pairs at λ'=%v have mean J %v", target, mean)
		}
	}
}

func TestTokensBackgroundDissimilar(t *testing.T) {
	cfg := DefaultTokensConfig(150, 3)
	cfg.PairsPerJ = 0 // background only
	cfg.PlantedJs = nil
	ds, _ := Tokens(cfg)
	if len(ds.Sets) < 50 {
		t.Fatalf("only %d background sets", len(ds.Sets))
	}
	rng := tabhash.NewSplitMix64(4)
	sum, n := 0.0, 0
	for k := 0; k < 300; k++ {
		i, j := rng.Intn(len(ds.Sets)), rng.Intn(len(ds.Sets))
		if i == j {
			continue
		}
		sum += intset.Jaccard(ds.Sets[i], ds.Sets[j])
		n++
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.2) > 0.08 {
		t.Errorf("background mean Jaccard %v, want ~0.2", mean)
	}
}

func TestUniformStats(t *testing.T) {
	ds := Uniform(2000, 10, 200, 5)
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
	st := ds.ComputeStats()
	if st.NumSets != 2000 {
		t.Fatalf("NumSets = %d", st.NumSets)
	}
	if math.Abs(st.AvgSetSize-10) > 1 {
		t.Errorf("AvgSetSize = %v, want ~10", st.AvgSetSize)
	}
	if st.Universe > 200 {
		t.Errorf("universe %d exceeds bound", st.Universe)
	}
}

func TestZipfSkewProducesRareTokens(t *testing.T) {
	flat := Uniform(3000, 10, 1000, 6)
	skewed := Zipf(3000, 10, 1000, 1.0, 6)
	rare := func(ds interface{ TokenFrequencies() map[uint32]int }) int {
		n := 0
		for _, f := range ds.TokenFrequencies() {
			if f <= 2 {
				n++
			}
		}
		return n
	}
	rf, rs := rare(flat), rare(skewed)
	if rs <= rf {
		t.Errorf("skewed dataset has %d rare tokens, flat has %d; want more in skewed", rs, rf)
	}
}

func TestZipfValid(t *testing.T) {
	ds := Zipf(500, 8, 300, 0.8, 7)
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
	for _, set := range ds.Sets {
		if len(set) < 2 {
			t.Fatalf("set too small: %v", set)
		}
	}
}

func TestPlantPairsSimilarity(t *testing.T) {
	ds := Uniform(500, 20, 5000, 8)
	for _, target := range []float64{0.5, 0.7, 0.9} {
		planted := PlantPairs(ds, 20, target, 9)
		if len(planted) == 0 {
			t.Fatalf("no pairs planted at %v", target)
		}
		sum := 0.0
		for _, p := range planted {
			sum += intset.Jaccard(ds.Sets[p[0]], ds.Sets[p[1]])
		}
		mean := sum / float64(len(planted))
		if math.Abs(mean-target) > 0.1 {
			t.Errorf("planted mean J %v, want ~%v", mean, target)
		}
	}
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredStructure(t *testing.T) {
	const (
		clusters   = 30
		perCluster = 4
		mutation   = 0.1
	)
	ds := Clustered(clusters, perCluster, 20, 100000, mutation, 70)
	if err := snapshot.ValidateSets(ds.Sets); err != nil {
		t.Fatal(err)
	}
	if len(ds.Sets) != clusters*perCluster {
		t.Fatalf("%d sets, want %d", len(ds.Sets), clusters*perCluster)
	}
	// Within-cluster similarity concentrates near the analytical value.
	keep := (1 - mutation) * (1 - mutation)
	wantJ := keep / (2 - keep)
	sumIn, nIn := 0.0, 0
	sumOut, nOut := 0.0, 0
	rng := tabhash.NewSplitMix64(71)
	for k := 0; k < 500; k++ {
		i, j := rng.Intn(len(ds.Sets)), rng.Intn(len(ds.Sets))
		if i == j {
			continue
		}
		jac := intset.Jaccard(ds.Sets[i], ds.Sets[j])
		if i/perCluster == j/perCluster {
			sumIn += jac
			nIn++
		} else {
			sumOut += jac
			nOut++
		}
	}
	if nIn < 10 || nOut < 10 {
		t.Skip("sample too small")
	}
	meanIn, meanOut := sumIn/float64(nIn), sumOut/float64(nOut)
	if math.Abs(meanIn-wantJ) > 0.12 {
		t.Errorf("within-cluster mean J %v, want ~%v", meanIn, wantJ)
	}
	if meanOut > 0.05 {
		t.Errorf("cross-cluster mean J %v, want near 0", meanOut)
	}
}

func TestClusteredJoinRecovers(t *testing.T) {
	// A join at a threshold below the within-cluster similarity must
	// recover the cluster structure.
	ds := Clustered(20, 3, 24, 100000, 0.05, 72)
	pairs := 0
	for i := 0; i < len(ds.Sets); i++ {
		for j := i + 1; j < len(ds.Sets); j++ {
			if intset.Jaccard(ds.Sets[i], ds.Sets[j]) >= 0.6 {
				pairs++
			}
		}
	}
	want := 20 * 3 // 3 pairs per cluster of 3
	if pairs < want*8/10 {
		t.Errorf("only %d/%d within-cluster pairs above 0.6", pairs, want)
	}
}

func TestProfileGenerate(t *testing.T) {
	for _, name := range []string{"NETFLIX", "AOL", "DBLP"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		ds := p.Generate(3000, 10)
		if err := snapshot.ValidateSets(ds.Sets); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := ds.ComputeStats()
		if st.NumSets < 2000 {
			t.Errorf("%s: only %d sets", name, st.NumSets)
		}
		// Average set size should be in the right ballpark (planting and
		// cleaning perturb it slightly).
		if st.AvgSetSize < p.AvgSetSize*0.6 || st.AvgSetSize > p.AvgSetSize*1.6 {
			t.Errorf("%s: avg set size %v, profile says %v", name, st.AvgSetSize, p.AvgSetSize)
		}
	}
}

func TestProfileByNameMissing(t *testing.T) {
	if _, ok := ProfileByName("NOPE"); ok {
		t.Error("ProfileByName returned ok for unknown name")
	}
}

func TestProfileSetsPerTokenPreserved(t *testing.T) {
	p, _ := ProfileByName("NETFLIX") // dense: sets/token should be large
	ds := p.Generate(2000, 11)
	st := ds.ComputeStats()
	sparse, _ := ProfileByName("AOL")
	ds2 := sparse.Generate(2000, 11)
	st2 := ds2.ComputeStats()
	if st.SetsPerToken <= st2.SetsPerToken {
		t.Errorf("NETFLIX sets/token (%v) should exceed AOL (%v) at equal scale",
			st.SetsPerToken, st2.SetsPerToken)
	}
}

func TestDeterminism(t *testing.T) {
	a := Uniform(200, 10, 100, 42)
	b := Uniform(200, 10, 100, 42)
	if len(a.Sets) != len(b.Sets) {
		t.Fatal("non-deterministic set count")
	}
	for i := range a.Sets {
		if !intset.Equal(a.Sets[i], b.Sets[i]) {
			t.Fatal("non-deterministic generation with fixed seed")
		}
	}
	c := Uniform(200, 10, 100, 43)
	same := true
	for i := range a.Sets {
		if !intset.Equal(a.Sets[i], c.Sets[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := tabhash.NewSplitMix64(12)
	for _, lambda := range []float64{3, 10, 100} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += poisson(rng, lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.2 {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}
