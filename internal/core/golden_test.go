package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/prep"
	"repro/internal/race"
	"repro/internal/stats"
	"repro/internal/verify"
)

// goldenCluster is the shape of TestAdaptiveRemovesDensePoints: a flat
// background plus a cluster of copies of one set. With more copies than
// Limit the adaptive rule fires, BRUTEFORCEPOINT runs and a brute-forced
// block exceeds Limit.
func goldenCluster(background, copies int) [][]uint32 {
	sets := datagen.LedgerShape(false, background, 51)
	for i := 0; i < copies; i++ {
		sets = append(sets, sets[0])
	}
	return sets
}

// golden is what one sequential run is pinned to.
type golden struct {
	digest   string // SHA-256 of the sorted pair set
	c        verify.Counters
	nodes    int64
	maxDepth int
	bfPoints int64
	bfNodes  int64
}

// TestGoldenJoin pins the join to what the per-pair pipeline and the
// map-based split produced at the commit before the block kernel (digests,
// counters and recursion metrics recorded there, none re-recorded since):
// the sorted pair set, the sequential candidate counters and the shape of
// the recursion, for both ledger shapes, the dense cluster, an R-S join,
// every sketch width, the three stopping rules, the literal Algorithm 2 and
// a small Limit — and the same pair set at every worker count. The kernel
// and the split may reorder work; they may not change which pairs are
// looked at, which survive the filters, or which node draws what.
func TestGoldenJoin(t *testing.T) {
	flat := datagen.LedgerShape(false, 3000, 1)
	skew := datagen.LedgerShape(true, 3000, 2)
	small := datagen.LedgerShape(false, 500, 3)
	for _, tc := range []struct {
		name   string
		sets   [][]uint32
		rs     bool // JoinRS of the even-numbered sets with the odd-numbered
		lambda float64
		opt    Options
		want   golden
	}{
		{name: "flat/l50", sets: flat, lambda: 0.5, opt: Options{Seed: 42},
			want: golden{digest: "a98616cf3088a3db20823088264e8d214d381714ed8f6804ea18e0beb55481f7", c: verify.Counters{PreCandidates: 1941908, Candidates: 301, Results: 301}, nodes: 1734, maxDepth: 1, bfPoints: 0, bfNodes: 1724}},
		{name: "flat/l70", sets: flat, lambda: 0.7, opt: Options{Seed: 42},
			want: golden{digest: "3edb3e54ad4ab8c5c3923613ba999ea1c551903e31f5cb20854c89da4d641b07", c: verify.Counters{PreCandidates: 1294936, Candidates: 255, Results: 255}, nodes: 1156, maxDepth: 1, bfPoints: 0, bfNodes: 1146}},
		{name: "flat/l90", sets: flat, lambda: 0.9, opt: Options{Seed: 42},
			want: golden{digest: "3b8883b8f609014eeba019b626fd5d81c044904375ff2e307e6c3ffcaaebcaa8", c: verify.Counters{PreCandidates: 1294936, Candidates: 142, Results: 142}, nodes: 1156, maxDepth: 1, bfPoints: 0, bfNodes: 1146}},
		{name: "skew/l50", sets: skew, lambda: 0.5, opt: Options{Seed: 42},
			want: golden{digest: "85d10547e9f145859938d0b4162f220c371804b4c2ce4dd16d5507ecb3ab3b5e", c: verify.Counters{PreCandidates: 966395, Candidates: 2534, Results: 1517}, nodes: 8138, maxDepth: 2, bfPoints: 0, bfNodes: 8109}},
		{name: "skew/l80", sets: skew, lambda: 0.8, opt: Options{Seed: 42},
			want: golden{digest: "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", c: verify.Counters{PreCandidates: 597536, Candidates: 450, Results: 450}, nodes: 4694, maxDepth: 2, bfPoints: 0, bfNodes: 4671}},
		{name: "cluster", sets: goldenCluster(400, 300), lambda: 0.5, opt: Options{Seed: 4, Repetitions: 2},
			want: golden{digest: "e52b042f7cfe244ff9b4e21fc9b04a996c84f8f908f35bfa317f8e790ee7dbcd", c: verify.Counters{PreCandidates: 306592, Candidates: 45190, Results: 45190}, nodes: 348, maxDepth: 2, bfPoints: 1806, bfNodes: 346}},
		{name: "rs", sets: flat, rs: true, lambda: 0.6, opt: Options{Seed: 8},
			want: golden{digest: "624f1f4db4c3dd02b60a2fd5bfd6a63fe9c55508b6194ed8cc1d1c30dde9090b", c: verify.Counters{PreCandidates: 1627807, Candidates: 271, Results: 271}, nodes: 1433, maxDepth: 1, bfPoints: 0, bfNodes: 1423}},
		{name: "rs/cluster", sets: goldenCluster(400, 300), rs: true, lambda: 0.5, opt: Options{Seed: 8, Repetitions: 2},
			want: golden{digest: "8785ba6ba9d9cc899854e7d9cdfb374bf987a0f521b28511cf6c0dbdcea9b368", c: verify.Counters{PreCandidates: 318990, Candidates: 22690, Results: 22690}, nodes: 331, maxDepth: 2, bfPoints: 1204, bfNodes: 330}},
		{name: "words-1", sets: small, lambda: 0.5, opt: Options{Seed: 5, SketchWords: -1, Limit: 100},
			want: golden{digest: "4c74d1aceae52405a6a1c3e598639bfbcc41f5d661d397799e16ec50c94358fd", c: verify.Counters{PreCandidates: 53838, Candidates: 47596, Results: 50}, nodes: 1060, maxDepth: 1, bfPoints: 0, bfNodes: 1050}},
		{name: "words-1/cluster", sets: goldenCluster(200, 120), lambda: 0.5, opt: Options{Seed: 5, SketchWords: -1, Limit: 100, Repetitions: 2},
			want: golden{digest: "7996a6af981fff48632d884306762bd29ae9b152ac4d60c42e9535feb5d7177d", c: verify.Counters{PreCandidates: 17260, Candidates: 9754, Results: 7278}, nodes: 80, maxDepth: 1, bfPoints: 0, bfNodes: 78}},
		{name: "words1", sets: flat, lambda: 0.5, opt: Options{Seed: 5, SketchWords: 1},
			want: golden{digest: "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", c: verify.Counters{PreCandidates: 1964432, Candidates: 80565, Results: 302}, nodes: 1722, maxDepth: 1, bfPoints: 9, bfNodes: 1715}},
		{name: "words3", sets: flat, lambda: 0.5, opt: Options{Seed: 5, SketchWords: 3},
			want: golden{digest: "3cf1ef233f9e6e5d1becbb191977fbf6038017b39b27ab1ad82917f94837f0bf", c: verify.Counters{PreCandidates: 2150988, Candidates: 770, Results: 300}, nodes: 1909, maxDepth: 1, bfPoints: 0, bfNodes: 1899}},
		{name: "words8", sets: skew, lambda: 0.6, opt: Options{Seed: 5, SketchWords: 8},
			want: golden{digest: "3f770c0301a5f7317fbbc3ba696dc1fdfff4182735520732d1f1e6df694964ff", c: verify.Counters{PreCandidates: 800253, Candidates: 1091, Results: 849}, nodes: 6941, maxDepth: 3, bfPoints: 0, bfNodes: 6914}},
		{name: "global", sets: flat, lambda: 0.6, opt: Options{Seed: 4, Stopping: StopGlobal},
			want: golden{digest: "b49579a2bf11a61e7fd907c2567a290eac065ffc8d7bff9f837ec0a3e0507a87", c: verify.Counters{PreCandidates: 19690, Candidates: 271, Results: 271}, nodes: 33925, maxDepth: 11, bfPoints: 0, bfNodes: 19690}},
		{name: "globalK2", sets: flat, lambda: 0.6, opt: Options{Seed: 4, Stopping: StopGlobal, GlobalDepth: 2},
			want: golden{digest: "b49579a2bf11a61e7fd907c2567a290eac065ffc8d7bff9f837ec0a3e0507a87", c: verify.Counters{PreCandidates: 235217, Candidates: 271, Results: 271}, nodes: 17348, maxDepth: 2, bfPoints: 0, bfNodes: 16071}},
		{name: "individual", sets: flat, lambda: 0.6, opt: Options{Seed: 4, Stopping: StopIndividual},
			want: golden{digest: "b49579a2bf11a61e7fd907c2567a290eac065ffc8d7bff9f837ec0a3e0507a87", c: verify.Counters{PreCandidates: 41023, Candidates: 271, Results: 271}, nodes: 30057, maxDepth: 4, bfPoints: 0, bfNodes: 18904}},
		{name: "strict", sets: small, lambda: 0.6, opt: Options{Seed: 3, StrictBruteForce: true, Limit: 100},
			want: golden{digest: "3226f1e5502d2c269a7eb5ce4f3e02431fefe64335b97db32c612220ea3ca22c", c: verify.Counters{PreCandidates: 32982, Candidates: 45, Results: 45}, nodes: 645, maxDepth: 1, bfPoints: 0, bfNodes: 635}},
		{name: "strict/cluster", sets: goldenCluster(200, 120), lambda: 0.6, opt: Options{Seed: 3, StrictBruteForce: true, Limit: 100, Repetitions: 2},
			want: golden{digest: "a9cdde4d8600a1b131576d15f47aee37a0baa8a28c6bc6f04194f96173702ef5", c: verify.Counters{PreCandidates: 42399, Candidates: 7278, Results: 7278}, nodes: 194, maxDepth: 1, bfPoints: 0, bfNodes: 192}},
		{name: "limit60", sets: skew, lambda: 0.5, opt: Options{Seed: 7, Limit: 60},
			want: golden{digest: "ecb1dd959ef82478945a1abb5f38713719c9714f7e1d9f6a00f2a1e73ec8db3b", c: verify.Counters{PreCandidates: 311955, Candidates: 2940, Results: 1489}, nodes: 9279, maxDepth: 5, bfPoints: 94, bfNodes: 9151}},
		{name: "limit10", sets: flat, lambda: 0.5, opt: Options{Seed: 7, Limit: 10},
			want: golden{digest: "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", c: verify.Counters{PreCandidates: 96376, Candidates: 313, Results: 302}, nodes: 22846, maxDepth: 5, bfPoints: 0, bfNodes: 21640}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Preprocessing depends on the sets, the seed and the sketch
			// width alone: one index serves all five runs of the case.
			var ix *prep.Index
			var r, s [][]uint32
			if tc.rs {
				for i, set := range tc.sets {
					if i%2 == 0 {
						r = append(r, set)
					} else {
						s = append(s, set)
					}
				}
			} else {
				ix = Preprocess(tc.sets, &tc.opt)
			}
			run := func(workers int, m *Metrics) ([]verify.Pair, verify.Counters) {
				opt := tc.opt
				opt.Workers, opt.Metrics = workers, m
				if tc.rs {
					return JoinRS(r, s, tc.lambda, &opt)
				}
				return JoinIndexed(ix, tc.lambda, &opt)
			}
			var m Metrics
			pairs, c := run(0, &m)
			got := golden{digest: stats.PairDigest(pairs), c: c, nodes: m.Nodes, maxDepth: m.MaxDepth,
				bfPoints: m.BruteForcedPoints, bfNodes: m.BruteForcedNodes}
			if got != tc.want {
				t.Errorf("sequential run\n got %#v\nwant %#v", got, tc.want)
			}
			if len(pairs) == 0 {
				t.Error("no result pairs: the case pins nothing")
			}
			workerCounts := []int{0, 1, 2, 4}
			if race.Enabled {
				workerCounts = []int{0, 4} // the detector makes every join ten times slower
			}
			for _, workers := range workerCounts {
				p, pc := run(workers, nil)
				if d := stats.PairDigest(p); d != got.digest {
					t.Errorf("workers=%d: pair set %s differs from the sequential %s", workers, d, got.digest)
				}
				if workers <= 1 && pc != c {
					t.Errorf("workers=%d: counters %+v, with Metrics %+v", workers, pc, c)
				}
			}
		})
	}
}
