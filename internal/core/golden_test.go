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
// counters and recursion metrics recorded there; bfPoints re-recorded where
// it began to count the literal rule's and the individual rule's removals;
// Repetitions, recorded later, is Options.Repetitions, all a join without a
// recall target runs; the cases with sketches re-recorded once, when a
// sketch bit became the low bit of a 32-bit minimum):
// the sorted pair set, the sequential candidate counters and the shape of
// the recursion, for both ledger shapes, the dense cluster, an R-S join,
// every sketch width, the three stopping rules, the literal Algorithm 2 (no
// sketches) and a small Limit — and the same pair set and the same recursion
// metrics (all but PeakLiveMass, which is per worker) at every worker count.
// The kernel and the split may reorder work; they may not change which pairs
// are looked at, which survive the filters, or which node draws what.
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
			want: golden{digest: "0abe594965be9e43494433b05830cba3f84de6c395ec553a12ecf3917e1b8af0", c: verify.Counters{PreCandidates: 1941908, Candidates: 342, Results: 300, Repetitions: 10}, nodes: 1734, maxDepth: 1, bfPoints: 0, bfNodes: 1724}},
		{name: "flat/l70", sets: flat, lambda: 0.7, opt: Options{Seed: 42},
			want: golden{digest: "3edb3e54ad4ab8c5c3923613ba999ea1c551903e31f5cb20854c89da4d641b07", c: verify.Counters{PreCandidates: 1294936, Candidates: 255, Results: 255, Repetitions: 10}, nodes: 1156, maxDepth: 1, bfPoints: 0, bfNodes: 1146}},
		{name: "flat/l90", sets: flat, lambda: 0.9, opt: Options{Seed: 42},
			want: golden{digest: "574d85f388b26156909e3dd6b89a25ae6919d9a42b1138718bec078e766e47bc", c: verify.Counters{PreCandidates: 1294936, Candidates: 141, Results: 141, Repetitions: 10}, nodes: 1156, maxDepth: 1, bfPoints: 0, bfNodes: 1146}},
		{name: "skew/l50", sets: skew, lambda: 0.5, opt: Options{Seed: 42},
			want: golden{digest: "d195c2ded9efe842650fdff1f6710c1ea1230f6bef6791d4d24e06e235b6bbf1", c: verify.Counters{PreCandidates: 966395, Candidates: 2376, Results: 1464, Repetitions: 10}, nodes: 8138, maxDepth: 2, bfPoints: 0, bfNodes: 8109}},
		{name: "skew/l80", sets: skew, lambda: 0.8, opt: Options{Seed: 42},
			want: golden{digest: "9ebeb527886402873aa2131274d29afbad32b4b52976e138469305ba90b73a41", c: verify.Counters{PreCandidates: 597536, Candidates: 450, Results: 450, Repetitions: 10}, nodes: 4694, maxDepth: 2, bfPoints: 0, bfNodes: 4671}},
		{name: "cluster", sets: goldenCluster(400, 300), lambda: 0.5, opt: Options{Seed: 4, Repetitions: 2},
			want: golden{digest: "e52b042f7cfe244ff9b4e21fc9b04a996c84f8f908f35bfa317f8e790ee7dbcd", c: verify.Counters{PreCandidates: 227506, Candidates: 45190, Results: 45190, Repetitions: 2}, nodes: 328, maxDepth: 2, bfPoints: 602, bfNodes: 327}},
		{name: "rs", sets: flat, rs: true, lambda: 0.6, opt: Options{Seed: 8},
			want: golden{digest: "624f1f4db4c3dd02b60a2fd5bfd6a63fe9c55508b6194ed8cc1d1c30dde9090b", c: verify.Counters{PreCandidates: 1627807, Candidates: 271, Results: 271, Repetitions: 10}, nodes: 1433, maxDepth: 1, bfPoints: 0, bfNodes: 1423}},
		{name: "rs/cluster", sets: goldenCluster(400, 300), rs: true, lambda: 0.5, opt: Options{Seed: 8, Repetitions: 2},
			want: golden{digest: "8785ba6ba9d9cc899854e7d9cdfb374bf987a0f521b28511cf6c0dbdcea9b368", c: verify.Counters{PreCandidates: 318988, Candidates: 22690, Results: 22690, Repetitions: 2}, nodes: 333, maxDepth: 2, bfPoints: 1204, bfNodes: 332}},
		{name: "words-1", sets: small, lambda: 0.5, opt: Options{Seed: 5, SketchWords: -1, Limit: 100},
			want: golden{digest: "4c74d1aceae52405a6a1c3e598639bfbcc41f5d661d397799e16ec50c94358fd", c: verify.Counters{PreCandidates: 53838, Candidates: 47596, Results: 50, Repetitions: 10}, nodes: 1060, maxDepth: 1, bfPoints: 0, bfNodes: 1050}},
		{name: "words-1/cluster", sets: goldenCluster(200, 120), lambda: 0.5, opt: Options{Seed: 5, SketchWords: -1, Limit: 100, Repetitions: 2},
			want: golden{digest: "7996a6af981fff48632d884306762bd29ae9b152ac4d60c42e9535feb5d7177d", c: verify.Counters{PreCandidates: 17260, Candidates: 9754, Results: 7278, Repetitions: 2}, nodes: 80, maxDepth: 1, bfPoints: 56, bfNodes: 78}},
		{name: "words1", sets: flat, lambda: 0.5, opt: Options{Seed: 5, SketchWords: 1},
			want: golden{digest: "a5cb0d226bd3133af868b838306f65618b723f4d2931cae1f0360acd7bb33500", c: verify.Counters{PreCandidates: 1946952, Candidates: 79559, Results: 302, Repetitions: 10}, nodes: 1722, maxDepth: 1, bfPoints: 3, bfNodes: 1712}},
		{name: "words3", sets: flat, lambda: 0.5, opt: Options{Seed: 5, SketchWords: 3},
			want: golden{digest: "98e5bd0c0e476b676204b6570c3af208c453d32df58ee18a0bf5113cd9a52de9", c: verify.Counters{PreCandidates: 2150988, Candidates: 888, Results: 299, Repetitions: 10}, nodes: 1909, maxDepth: 1, bfPoints: 0, bfNodes: 1899}},
		{name: "words8", sets: skew, lambda: 0.6, opt: Options{Seed: 5, SketchWords: 8},
			want: golden{digest: "3f770c0301a5f7317fbbc3ba696dc1fdfff4182735520732d1f1e6df694964ff", c: verify.Counters{PreCandidates: 800253, Candidates: 1207, Results: 849, Repetitions: 10}, nodes: 6941, maxDepth: 3, bfPoints: 0, bfNodes: 6914}},
		{name: "global", sets: flat, lambda: 0.6, opt: Options{Seed: 4, Stopping: StopGlobal},
			want: golden{digest: "b49579a2bf11a61e7fd907c2567a290eac065ffc8d7bff9f837ec0a3e0507a87", c: verify.Counters{PreCandidates: 19690, Candidates: 271, Results: 271, Repetitions: 10}, nodes: 33925, maxDepth: 11, bfPoints: 0, bfNodes: 19690}},
		{name: "individual", sets: flat, lambda: 0.6, opt: Options{Seed: 4, Stopping: StopIndividual},
			want: golden{digest: "b49579a2bf11a61e7fd907c2567a290eac065ffc8d7bff9f837ec0a3e0507a87", c: verify.Counters{PreCandidates: 42263, Candidates: 271, Results: 271, Repetitions: 10}, nodes: 29892, maxDepth: 4, bfPoints: 7069, bfNodes: 18819}},
		{name: "limit60", sets: skew, lambda: 0.5, opt: Options{Seed: 7, Limit: 60},
			want: golden{digest: "fb33a471aaada52431b9aa6cd4b20567b6bc5b184f4baea1a439667baf6e1f71", c: verify.Counters{PreCandidates: 311909, Candidates: 3088, Results: 1529, Repetitions: 10}, nodes: 9242, maxDepth: 4, bfPoints: 103, bfNodes: 9115}},
		{name: "limit10", sets: flat, lambda: 0.5, opt: Options{Seed: 7, Limit: 10},
			want: golden{digest: "a2332a2bff9d86f46ed34eb0ce8335080726d56031789609b56ed0924fe5965f", c: verify.Counters{PreCandidates: 96376, Candidates: 307, Results: 300, Repetitions: 10}, nodes: 22846, maxDepth: 5, bfPoints: 0, bfNodes: 21640}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Preprocessing depends on the sets, the seed and the sketch
			// width alone: one index serves all runs of the case.
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
				var pm Metrics
				p, pc := run(workers, &pm)
				if d := stats.PairDigest(p); d != got.digest {
					t.Errorf("workers=%d: pair set %s differs from the sequential %s", workers, d, got.digest)
				}
				if workers <= 1 && pc != c {
					t.Errorf("workers=%d: counters %+v, sequential %+v", workers, pc, c)
				}
				pm.PeakLiveMass = m.PeakLiveMass // the one per-worker statistic
				if pm != m {
					t.Errorf("workers=%d: recursion metrics %+v, sequential %+v", workers, pm, m)
				}
			}
		})
	}
}
