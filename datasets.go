package ssjoin

import (
	"fmt"
	"io"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// LoadSets reads a collection from a file in the standard one-set-per-line
// token format (whitespace- or comma-separated non-negative integers).
// Sets are normalized; empty lines are skipped. The sets share one backing
// array, each capped at its own end, so appending to one copies it.
func LoadSets(path string) ([][]uint32, error) {
	ds, err := dataset.Load(path)
	if err != nil {
		return nil, err
	}
	return ds.Sets, nil
}

// ReadSets parses a collection from a reader in the same format.
func ReadSets(r io.Reader) ([][]uint32, error) {
	ds, err := dataset.Parse(r)
	if err != nil {
		return nil, err
	}
	return ds.Sets, nil
}

// SaveSets writes a collection to a file, one set per line.
func SaveSets(path string, sets [][]uint32) error {
	return (&dataset.Dataset{Sets: sets}).Save(path)
}

// WriteSets serializes a collection to a writer, one set per line.
func WriteSets(w io.Writer, sets [][]uint32) error {
	return (&dataset.Dataset{Sets: sets}).Write(w)
}

// CleanSets applies the paper's preprocessing: duplicate sets and sets
// with fewer than two tokens are removed. It returns the cleaned
// collection (sharing backing arrays with the input).
func CleanSets(sets [][]uint32) [][]uint32 {
	ds := &dataset.Dataset{Sets: sets}
	ds.Clean()
	return ds.Sets
}

// Summary describes a collection in the terms of Table I of the paper.
type Summary struct {
	NumSets      int
	Universe     int
	AvgSetSize   float64
	MaxSetSize   int
	SetsPerToken float64
}

// Summarize computes collection statistics.
func Summarize(sets [][]uint32) Summary {
	s := (&dataset.Dataset{Sets: sets}).ComputeStats()
	return Summary{
		NumSets:      s.NumSets,
		Universe:     s.Universe,
		AvgSetSize:   s.AvgSetSize,
		MaxSetSize:   s.MaxSetSize,
		SetsPerToken: s.SetsPerToken,
	}
}

// GenerateUniform generates n sets of ~avgSize tokens drawn uniformly from
// a universe of the given size — the UNIFORM workload of the paper, with a
// flat token-frequency distribution that defeats prefix filtering.
func GenerateUniform(n, avgSize, universe int, seed uint64) [][]uint32 {
	return datagen.Uniform(n, avgSize, universe, seed).Sets
}

// GenerateZipf generates n sets of ~avgSize tokens with Zipf(skew) token
// popularity — many rare tokens, the regime where exact prefix-filter
// joins excel.
func GenerateZipf(n, avgSize, universe int, skew float64, seed uint64) [][]uint32 {
	return datagen.Zipf(n, avgSize, universe, skew, seed).Sets
}

// GenerateTokens generates a TOKENS dataset (Section VI-1 of the paper):
// universe of 1000 tokens, each appearing in up to tokenCap sets, with 50
// planted pairs at each expected Jaccard in {0.55, 0.65, 0.75, 0.85, 0.95}
// over a background of expected similarity 0.2. The returned index pairs
// identify the planted pairs. The paper's TOKENS10K/15K/20K use
// tokenCap = 10000, 15000, 20000.
func GenerateTokens(tokenCap int, seed uint64) ([][]uint32, [][2]int) {
	ds, planted := datagen.Tokens(datagen.DefaultTokensConfig(tokenCap, seed))
	return ds.Sets, planted
}

// GenerateClustered generates `clusters` groups of `perCluster`
// near-duplicate sets each: every member mutates a fraction `mutation` of
// its cluster's core tokens. Within-cluster pairs have expected Jaccard
// (1-mutation)²/(2-(1-mutation)²); cross-cluster pairs are nearly
// disjoint. The archetypal entity-resolution workload.
func GenerateClustered(clusters, perCluster, coreSize, universe int, mutation float64, seed uint64) [][]uint32 {
	return datagen.Clustered(clusters, perCluster, coreSize, universe, mutation, seed).Sets
}

// ProfileNames lists the real-dataset profiles available to
// GenerateProfile, matching the datasets of Table I.
func ProfileNames() []string {
	names := make([]string, len(datagen.Profiles))
	for i, p := range datagen.Profiles {
		names[i] = p.Name
	}
	return names
}

// GenerateProfile generates a synthetic analogue of one of the paper's
// real benchmark datasets (see ProfileNames), scaled to n sets while
// preserving average set size and token-frequency structure: the real
// datasets are not redistributable.
func GenerateProfile(name string, n int, seed uint64) ([][]uint32, error) {
	p, ok := datagen.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("ssjoin: unknown profile %q (have %v)", name, ProfileNames())
	}
	return p.Generate(n, seed).Sets, nil
}

// PlantSimilarPairs appends `pairs` new set pairs with expected Jaccard
// similarity j to the collection, returning the extended collection and
// the planted index pairs. Useful for building workloads with known
// ground truth.
func PlantSimilarPairs(sets [][]uint32, pairs int, j float64, seed uint64) ([][]uint32, [][2]int) {
	ds := &dataset.Dataset{Sets: sets}
	planted := datagen.PlantPairs(ds, pairs, j, seed)
	return ds.Sets, planted
}
