package ssjoin

// Tests for the unified parallel execution layer: every algorithm accepts
// Options.Workers, and for a fixed seed the result *set* is identical no
// matter how many workers run it — the determinism contract that makes
// parallelism safe to enable by default in the tools.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/datagen"
)

// parallelWorkload builds a dataset with planted pairs across the
// threshold range plus background noise.
func parallelWorkload(n int, seed uint64) [][]uint32 {
	ds := datagen.Uniform(n, 20, 5000, seed)
	datagen.PlantPairs(ds, n/20, 0.55, seed+1)
	datagen.PlantPairs(ds, n/20, 0.75, seed+2)
	datagen.PlantPairs(ds, n/20, 0.95, seed+3)
	return ds.Sets
}

func sortedPairs(pairs []Pair) []Pair {
	out := append([]Pair(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func equalPairSets(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedPairs(a), sortedPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var workerCounts = []int{1, 2, 4, runtime.GOMAXPROCS(0)}

// TestParallelDeterminism is the acceptance test of the execution layer:
// CPSJoin and MinHashJoin return identical pair sets for a fixed seed at
// every worker count.
func TestParallelDeterminism(t *testing.T) {
	sets := parallelWorkload(600, 77)
	algorithms := []struct {
		name string
		run  func(workers int) []Pair
	}{
		{"CPSJoin", func(workers int) []Pair {
			p, _ := CPSJoin(sets, 0.5, &Options{Seed: 11, Workers: workers})
			return p
		}},
		{"MinHashJoin", func(workers int) []Pair {
			p, _ := MinHashJoin(sets, 0.5, &Options{Seed: 13, Workers: workers})
			return p
		}},
	}
	for _, alg := range algorithms {
		t.Run(alg.name, func(t *testing.T) {
			ref := alg.run(1)
			if len(ref) == 0 {
				t.Fatal("sequential run found no pairs; workload broken")
			}
			for _, workers := range workerCounts[1:] {
				got := alg.run(workers)
				if !equalPairSets(ref, got) {
					t.Errorf("workers=%d: %d pairs differ from sequential %d pairs",
						workers, len(got), len(ref))
				}
			}
		})
	}
}

// TestParallelExactJoins checks that the parallel probe variants of the
// exact algorithms reproduce the sequential pairs and counters exactly.
func TestParallelExactJoins(t *testing.T) {
	sets := parallelWorkload(500, 78)
	t.Run("AllPairs", func(t *testing.T) {
		ref, refStats := AllPairs(sets, 0.5, nil)
		for _, workers := range workerCounts[1:] {
			got, gotStats := AllPairs(sets, 0.5, &Options{Workers: workers})
			if !equalPairSets(ref, got) {
				t.Errorf("workers=%d: pair sets differ", workers)
			}
			if refStats != gotStats {
				t.Errorf("workers=%d: stats %+v != sequential %+v", workers, gotStats, refStats)
			}
		}
	})
	t.Run("PPJoin", func(t *testing.T) {
		ref, refStats := PPJoin(sets, 0.5, nil)
		for _, workers := range workerCounts[1:] {
			got, gotStats := PPJoin(sets, 0.5, &Options{Workers: workers})
			if !equalPairSets(ref, got) {
				t.Errorf("workers=%d: pair sets differ", workers)
			}
			if refStats != gotStats {
				t.Errorf("workers=%d: stats %+v != sequential %+v", workers, gotStats, refStats)
			}
		}
	})
	t.Run("AllPairsRS", func(t *testing.T) {
		r := parallelWorkload(300, 79)
		s := parallelWorkload(300, 80)
		ref, _ := AllPairsRS(r, s, 0.5, nil)
		for _, workers := range workerCounts[1:] {
			got, _ := AllPairsRS(r, s, 0.5, &Options{Workers: workers})
			if !equalPairSets(ref, got) {
				t.Errorf("workers=%d: pair sets differ", workers)
			}
		}
	})
}

// TestParallelBayesLSH covers the remaining approximate algorithm and the
// unified "negative SketchWords disables sketching" convention.
func TestParallelBayesLSH(t *testing.T) {
	sets := parallelWorkload(400, 81)
	ref, _ := BayesLSHJoin(sets, 0.5, &Options{Seed: 9})
	if len(ref) == 0 {
		t.Fatal("sequential BayesLSH found no pairs")
	}
	for _, workers := range workerCounts[1:] {
		got, _ := BayesLSHJoin(sets, 0.5, &Options{Seed: 9, Workers: workers})
		if !equalPairSets(ref, got) {
			t.Errorf("workers=%d: pair sets differ", workers)
		}
	}
	// Sketch pruning disabled: recall can only go up (nothing is pruned
	// before exact verification), precision stays exact.
	noSketch, _ := BayesLSHJoin(sets, 0.5, &Options{Seed: 9, SketchWords: -1})
	if len(noSketch) < len(ref) {
		t.Errorf("disabling sketch pruning lost pairs: %d < %d", len(noSketch), len(ref))
	}
	for _, p := range noSketch {
		if Jaccard(sets[p.A], sets[p.B]) < 0.5 {
			t.Fatal("false positive with sketching disabled")
		}
	}
}

// TestSketchDisabledUniform checks the convention on the other two
// converters at the public API level.
func TestSketchDisabledUniform(t *testing.T) {
	sets := parallelWorkload(300, 82)
	for _, alg := range []Algorithm{AlgCPSJoin, AlgMinHash, AlgBayesLSH} {
		pairs, _, err := Join(sets, 0.5, alg, &Options{Seed: 3, SketchWords: -1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(pairs) == 0 {
			t.Errorf("%s with sketching disabled found no pairs", alg)
		}
		for _, p := range pairs {
			if Jaccard(sets[p.A], sets[p.B]) < 0.5 {
				t.Fatalf("%s: false positive with sketching disabled", alg)
			}
		}
	}
}

// TestIndexJoinsWithWorkers exercises the Workers path through the
// prebuilt-index API.
func TestIndexJoinsWithWorkers(t *testing.T) {
	sets := parallelWorkload(500, 83)
	ix := NewIndex(sets, &Options{Seed: 21})
	ixPar := NewIndex(sets, &Options{Seed: 21, Workers: 4})
	ref, _ := ix.CPSJoin(0.5, &Options{Seed: 21})
	for _, workers := range workerCounts[1:] {
		got, _ := ixPar.CPSJoin(0.5, &Options{Seed: 21, Workers: workers})
		if !equalPairSets(ref, got) {
			t.Errorf("workers=%d: indexed join differs from sequential", workers)
		}
	}
}

// TestSearchIndexParallelBuild checks that a parallel-built search index
// answers queries identically to a sequential build.
func TestSearchIndexParallelBuild(t *testing.T) {
	sets := parallelWorkload(400, 84)
	seqIx := NewSearchIndex(sets, 0.7, &SearchOptions{Seed: 5})
	parIx := NewSearchIndex(sets, 0.7, &SearchOptions{Seed: 5, Workers: 4})
	misses := 0
	for q := 0; q < 100; q++ {
		a := seqIx.QueryAll(sets[q])
		b := parIx.QueryAll(sets[q])
		for _, ms := range [][]Match{a, b} {
			sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
		}
		if len(a) != len(b) {
			misses++
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				misses++
				break
			}
		}
	}
	if misses != 0 {
		t.Errorf("%d of 100 queries differ between sequential and parallel builds", misses)
	}
}

// BenchmarkCPSJoinParallel measures the scaling of one CPSJoin run across
// worker counts on a synthetic workload; the ledger's exec.join_speedup is
// the same ratio on its own workloads.
func BenchmarkCPSJoinParallel(b *testing.B) {
	sets := parallelWorkload(4000, 90)
	ix := NewIndex(sets, &Options{Seed: 7, Workers: -1})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := &Options{Seed: 7, Workers: workers}
			for i := 0; i < b.N; i++ {
				ix.CPSJoin(0.5, opts)
			}
		})
	}
}
