// Package bench regenerates the tables and figures of the paper's own
// evaluation (Christiani, Pagh & Sivertsen, Section VI, whose protocol
// follows Mann, Augsten & Bouros, PVLDB 2016) and nothing else: the
// workloads (workloads.go), one Run function per artifact
// (experiments.go) and the table that prints its rows as text or CSV
// (table.go), driven by cmd/experiments and the root package's
// benchmarks. It imports the join algorithms only.
// How fast the system is end to end is the business of the ledger in
// benchmark/; the serving stack's contracts are Go tests next to the code.
package bench

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Workload is one benchmark dataset instance.
type Workload struct {
	Name string
	Sets [][]uint32
}

// Scale controls workload sizes. The paper runs full-size datasets
// (10⁵–10⁷ sets) on a Xeon with 512 GB RAM; the harness defaults to a
// laptop-friendly scale while preserving each dataset's structure.
type Scale struct {
	// ProfileSets is the number of sets for each real-dataset analogue.
	ProfileSets int
	// UniformSets is the number of sets for the UNIFORM005 analogue.
	UniformSets int
	// TokensCap is the token cap of the smallest TOKENS dataset; the
	// other two use 1.5x and 2x, mirroring TOKENS10K/15K/20K.
	TokensCap int
	// Seed drives all generation.
	Seed uint64
}

// DefaultScale is sized so the full Table II harness completes in minutes.
func DefaultScale() Scale {
	return Scale{ProfileSets: 5000, UniformSets: 5000, TokensCap: 400, Seed: 2018}
}

// PaperScale approximates the paper's dataset sizes. Running Table II at
// this scale takes hours and several GB of memory.
func PaperScale() Scale {
	return Scale{ProfileSets: 100_000, UniformSets: 100_000, TokensCap: 10_000, Seed: 2018}
}

// SmokeScale is the same workload structure as DefaultScale, shrunk until
// every table finishes in seconds on a shared two-core runner (`all` in
// under a minute) while each workload keeps join mass at every threshold.
func SmokeScale() Scale {
	return Scale{ProfileSets: 1200, UniformSets: 1200, TokensCap: 150, Seed: 2018}
}

// ProfileWorkloads generates the synthetic analogues of the ten real
// datasets of Table I.
func ProfileWorkloads(s Scale) []Workload {
	out := make([]Workload, 0, len(datagen.Profiles))
	for i, p := range datagen.Profiles {
		ds := p.Generate(s.ProfileSets, s.Seed+uint64(i)*101)
		out = append(out, Workload{Name: p.Name, Sets: ds.Sets})
	}
	return out
}

// SyntheticWorkloads generates UNIFORM005 and the three TOKENS datasets.
func SyntheticWorkloads(s Scale) []Workload {
	var out []Workload

	// Universe scaled from the paper's 100k sets / 209 tokens, floored so
	// sets (avg size 10) stay well below the universe and remain distinct.
	uni := datagen.Uniform(s.UniformSets, 10, maxInt(s.UniformSets/478, 40), s.Seed+7001)
	// Plant result mass like the profile generator does, so joins at high
	// thresholds are non-trivial.
	for i, j := range []float64{0.55, 0.65, 0.75, 0.85, 0.95} {
		datagen.PlantPairs(uni, s.UniformSets/1000+5, j, s.Seed+uint64(i)+7100)
	}
	uni.Clean()
	out = append(out, Workload{Name: "UNIFORM005", Sets: uni.Sets})

	caps := []struct {
		name string
		mult float64
	}{
		{"TOKENS10K", 1.0},
		{"TOKENS15K", 1.5},
		{"TOKENS20K", 2.0},
	}
	for i, c := range caps {
		cap := int(float64(s.TokensCap) * c.mult)
		cfg := datagen.DefaultTokensConfig(cap, s.Seed+uint64(i)*13+8000)
		// Scale the planted-pair count with the cap so planted sets stay a
		// small fraction of the background (the paper plants 50 pairs per
		// λ' at cap 10000).
		cfg.PairsPerJ = clamp(cap/200, 4, 50)
		ds, _ := datagen.Tokens(cfg)
		out = append(out, Workload{Name: c.name, Sets: ds.Sets})
	}
	return out
}

// AllWorkloads generates every dataset of the evaluation: ten real-dataset
// analogues, UNIFORM005, and TOKENS10K/15K/20K.
func AllWorkloads(s Scale) []Workload {
	return append(ProfileWorkloads(s), SyntheticWorkloads(s)...)
}

// WorkloadByName regenerates a single named workload.
func WorkloadByName(name string, s Scale) (Workload, error) {
	for _, w := range AllWorkloads(s) {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Summary returns Table I statistics for a workload.
func (w Workload) Summary() dataset.Stats {
	return (&dataset.Dataset{Sets: w.Sets}).ComputeStats()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
