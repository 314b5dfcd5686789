package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// BenchmarkJoinIndexed measures the join proper — preprocessing excluded —
// on the perf ledger's two shapes at 10 000 sets, at the loosest and the
// tightest threshold of its sweep and at 0.6 and 0.7, on either side of
// where the sketch filter starts to exit after four words (MaxHam 117 and
// 90 at 8 words), sequentially and at GOMAXPROCS workers.
// ns/precand is the time per pair the recursion looked at: the cost of the
// brute-force kernel with the splitting amortized over it. Run with
// -benchmem: allocation is the split step's child buffers.
func BenchmarkJoinIndexed(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, ds := range []struct {
		name string
		sets [][]uint32
	}{
		{"flat", datagen.LedgerShape(false, 10000, 1)},
		{"skew", datagen.LedgerShape(true, 10000, 2)},
	} {
		ix := Preprocess(ds.sets, &Options{Seed: 42, Workers: -1})
		for _, lambda := range []float64{0.5, 0.6, 0.7, 0.9} {
			for _, workers := range workerCounts {
				b.Run(fmt.Sprintf("%s/l%02.0f/w%d", ds.name, 100*lambda, workers), func(b *testing.B) {
					b.ReportAllocs()
					var pre int64
					for i := 0; i < b.N; i++ {
						_, c := JoinIndexed(ix, lambda, &Options{Seed: 42, Workers: workers})
						pre += c.PreCandidates
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pre), "ns/precand")
				})
			}
		}
	}
}
