package ssjoin

// One testing.B benchmark per table and figure of the paper's evaluation.
// These run the same code paths as cmd/experiments at a benchmark-friendly
// scale; use `go run ./cmd/experiments` for the full harness with recall
// accounting and the paper's output layout.
//
//	BenchmarkTable1Stats      — Table I  (dataset statistics)
//	BenchmarkTable2/...       — Table II (join time per dataset/algo/λ)
//	BenchmarkFig2Speedup/...  — Figure 2 (CP and ALL on the same workload)
//	BenchmarkFig3Limit/...    — Figure 3a (brute-force limit sweep)
//	BenchmarkFig3Epsilon/...  — Figure 3b (ε sweep)
//	BenchmarkFig3Sketch/...   — Figure 3c (sketch width sweep)
//	BenchmarkTable4Candidates — Table IV (candidate statistics)
//	BenchmarkTokensRobustness — Section VI-A.3 (TOKENS progression)
//	BenchmarkStopping/...     — Section IV-C.5 ablation
//	BenchmarkBayesLSH         — Section VI-A.2 comparison

import (
	"fmt"
	"testing"

	"repro/internal/allpairs"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lshjoin"
	"repro/internal/verify"
)

// benchScale keeps benchmark workloads small enough for -bench=. runs.
func benchScale() bench.Scale {
	return bench.Scale{ProfileSets: 1500, UniformSets: 1500, TokensCap: 120, Seed: 2018}
}

var workloadCache = map[string]bench.Workload{}

func benchWorkload(b *testing.B, name string) bench.Workload {
	b.Helper()
	if w, ok := workloadCache[name]; ok {
		return w
	}
	w, err := bench.WorkloadByName(name, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	workloadCache[name] = w
	return w
}

func BenchmarkTable1Stats(b *testing.B) {
	ws := bench.AllWorkloads(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RunTable1(ws)
	}
}

// benchDatasets is the subset of Table II datasets exercised per benchmark
// run: one prefix-filter-friendly, one dense, one adversarial.
var benchDatasets = []string{"AOL", "NETFLIX", "TOKENS10K", "UNIFORM005"}

func BenchmarkTable2(b *testing.B) {
	for _, name := range benchDatasets {
		w := benchWorkload(b, name)
		ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
		for _, lambda := range []float64{0.5, 0.7, 0.9} {
			b.Run(fmt.Sprintf("%s/CP/λ=%.1f", name, lambda), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.JoinIndexed(ix, lambda, &core.Options{Seed: 42})
				}
			})
			b.Run(fmt.Sprintf("%s/MH/λ=%.1f", name, lambda), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lshjoin.JoinIndexed(ix, lambda, &lshjoin.Options{Seed: 42})
				}
			})
			b.Run(fmt.Sprintf("%s/ALL/λ=%.1f", name, lambda), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					allpairs.Join(w.Sets, lambda)
				}
			})
		}
	}
}

func BenchmarkFig2Speedup(b *testing.B) {
	// Figure 2 is the CP/ALL ratio; benchmark both on the same workload so
	// the reported ns/op ratio is the speedup.
	w := benchWorkload(b, "TOKENS10K")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	b.Run("CP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42})
		}
	})
	b.Run("ALL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			allpairs.Join(w.Sets, 0.5)
		}
	})
}

func BenchmarkFig3Limit(b *testing.B) {
	w := benchWorkload(b, "UNIFORM005")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	for _, limit := range bench.Fig3Limits {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42, Limit: limit})
			}
		})
	}
}

func BenchmarkFig3Epsilon(b *testing.B) {
	w := benchWorkload(b, "UNIFORM005")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	for _, eps := range bench.Fig3Epsilons {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42, Epsilon: eps, EpsilonSet: true})
			}
		})
	}
}

func BenchmarkFig3Sketch(b *testing.B) {
	w := benchWorkload(b, "UNIFORM005")
	for _, words := range bench.Fig3Words {
		ix := core.Preprocess(w.Sets, &core.Options{Seed: 42, SketchWords: words})
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42, SketchWords: words})
			}
		})
	}
}

func BenchmarkTable4Candidates(b *testing.B) {
	w := benchWorkload(b, "TOKENS10K")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	var sink verify.Counters
	b.Run("ALL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sink = allpairs.Join(w.Sets, 0.5)
		}
	})
	b.Run("CP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sink = core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42})
		}
	})
	_ = sink
}

func BenchmarkTokensRobustness(b *testing.B) {
	for _, name := range []string{"TOKENS10K", "TOKENS15K", "TOKENS20K"} {
		w := benchWorkload(b, name)
		ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
		b.Run(name+"/CP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42})
			}
		})
		b.Run(name+"/ALL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				allpairs.Join(w.Sets, 0.5)
			}
		})
	}
}

func BenchmarkStopping(b *testing.B) {
	w := benchWorkload(b, "UNIFORM005")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	for name, stop := range map[string]core.Stopping{
		"adaptive":   core.StopAdaptive,
		"global":     core.StopGlobal,
		"individual": core.StopIndividual,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42, Stopping: stop})
			}
		})
	}
}

func BenchmarkBayesLSH(b *testing.B) {
	w := benchWorkload(b, "UNIFORM005")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	b.Run("bayeslsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lshjoin.BayesJoinIndexed(ix, 0.5, &lshjoin.Options{Seed: 42})
		}
	})
	b.Run("cpsjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42})
		}
	})
}

// BenchmarkParallel measures the repetition-level parallel CPSJoin of
// Section VII against the sequential run.
func BenchmarkParallel(b *testing.B) {
	w := benchWorkload(b, "TOKENS20K")
	ix := core.Preprocess(w.Sets, &core.Options{Seed: 42})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42, Workers: workers})
			}
		})
	}
}

// BenchmarkPPJoinVsAllPairs checks Mann et al.'s finding that ALL is
// competitive with the more advanced positional filtering.
func BenchmarkPPJoinVsAllPairs(b *testing.B) {
	w := benchWorkload(b, "AOL")
	b.Run("allpairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			allpairs.Join(w.Sets, 0.5)
		}
	})
	b.Run("ppjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			allpairs.PPJoin(w.Sets, 0.5)
		}
	})
}
