package core

import (
	"testing"

	"repro/internal/intset"
	"repro/internal/stats"
	"repro/internal/verify"
)

func TestParallelMatchesSequential(t *testing.T) {
	sets := testWorkload(500, 40)
	ix := Preprocess(sets, &Options{Seed: 5})
	seq, _ := JoinIndexed(ix, 0.5, &Options{Seed: 5})
	par, _ := JoinIndexed(ix, 0.5, &Options{Seed: 5, Workers: 4})
	if !stats.EqualPairSets(seq, par) {
		t.Fatalf("parallel (%d pairs) differs from sequential (%d pairs)",
			len(par), len(seq))
	}
}

func TestParallelPrecisionAndRecall(t *testing.T) {
	sets := testWorkload(600, 41)
	ix := Preprocess(sets, &Options{Seed: 6})
	truth := verify.BruteForceJoin(sets, 0.5)
	got, c := JoinIndexed(ix, 0.5, &Options{Seed: 6, Workers: 8})
	for _, p := range got {
		if intset.Jaccard(sets[p.A], sets[p.B]) < 0.5 {
			t.Fatal("false positive from parallel join")
		}
	}
	if r := stats.Recall(got, truth); r < 0.9 {
		t.Errorf("parallel recall %v", r)
	}
	if c.Results != int64(len(got)) {
		t.Errorf("Results counter %d != %d", c.Results, len(got))
	}
}

func TestParallelWorkerCounts(t *testing.T) {
	sets := testWorkload(300, 42)
	ix := Preprocess(sets, &Options{Seed: 7})
	ref, _ := JoinIndexed(ix, 0.6, &Options{Seed: 7, Workers: 1})
	for _, workers := range []int{2, 3, 16, -1 /* GOMAXPROCS */} {
		got, _ := JoinIndexed(ix, 0.6, &Options{Seed: 7, Workers: workers})
		if !stats.EqualPairSets(ref, got) {
			t.Errorf("workers=%d: results differ from single-worker run", workers)
		}
	}
}

func TestParallelTinyInput(t *testing.T) {
	ix := Preprocess([][]uint32{{1, 2}}, &Options{Seed: 1})
	if got, _ := JoinIndexed(ix, 0.5, &Options{Workers: 4}); got != nil {
		t.Error("parallel join of single set returned pairs")
	}
}
