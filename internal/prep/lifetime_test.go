package prep_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lshjoin"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/verify"
)

// The three joins over the skew collection of their own TestGoldenJoin
// (datagen.LedgerShape(true, 3000, 2), T = 128, 8 sketch words, seed 42,
// λ = 0.5), with the pair digests pinned there.
var goldenJoins = []struct {
	name   string
	join   func(ix *prep.Index, workers int) []verify.Pair
	digest string
}{
	{"core", func(ix *prep.Index, workers int) []verify.Pair {
		pairs, _ := core.JoinIndexed(ix, 0.5, &core.Options{Seed: 42, Workers: workers})
		return pairs
	}, "d195c2ded9efe842650fdff1f6710c1ea1230f6bef6791d4d24e06e235b6bbf1"},
	{"lshjoin", func(ix *prep.Index, workers int) []verify.Pair {
		pairs, _ := lshjoin.JoinIndexed(ix, 0.5, &lshjoin.Options{Seed: 42, Workers: workers})
		return pairs
	}, "fff703c212150966b5e9233c5fad2504f8a0e2c524c026b7dc64f4e89d0a1f8d"},
	{"bayeslsh", func(ix *prep.Index, workers int) []verify.Pair {
		pairs, _ := lshjoin.BayesJoinIndexed(ix, 0.5, &lshjoin.Options{Seed: 42, Workers: workers})
		return pairs
	}, "8f4c5e3639d6e7bee0271f7f100e01729fe3e812fcd8091afd2cc9f42f2894d6"},
}

func saveGolden(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.bin")
	if err := prep.Build(datagen.LedgerShape(true, 3000, 2), 128, 8, 42).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustLoad(t *testing.T, path string) *prep.Index {
	t.Helper()
	ix, err := prep.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestJoinKeepsMappingAlive: a loaded index's matrices are views over a
// mapping that is unmapped once the *Index is unreachable, and a join
// copies the two slice headers out of the index and never looks at it
// again. Each JoinIndexed is handed the only reference to a freshly loaded
// index while the collector runs back to back: a join that does not keep
// its index alive dies here with "unexpected fault address" in the middle
// of a kernel, it does not fail an assertion.
func TestJoinKeepsMappingAlive(t *testing.T) {
	path := saveGolden(t)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for _, tc := range goldenJoins {
		t.Run(tc.name, func(t *testing.T) {
			// Without the keep-alive one join in three outruns the finalizer.
			for _, workers := range []int{1, 2, 4, 1, 2, 4, 1, 2, 4} {
				if d := stats.PairDigest(tc.join(mustLoad(t, path), workers)); d != tc.digest {
					t.Errorf("%d workers: pair set %s, want %s", workers, d, tc.digest)
				}
			}
		})
	}
}

// TestLoadedIndexSavesIdentically: a loaded index serializes to the file it
// came from, byte for byte — also onto the very path it is mapped from,
// where the rename leaves the old mapping intact and the join over it
// correct.
func TestLoadedIndexSavesIdentically(t *testing.T) {
	path := saveGolden(t)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix := mustLoad(t, path)
	for _, to := range []string{filepath.Join(t.TempDir(), "copy.bin"), path} {
		if err := ix.Save(to); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(to)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: saved bytes differ from the file the index was loaded from", to)
		}
	}
	for _, ix := range []*prep.Index{ix, mustLoad(t, path)} {
		if d := stats.PairDigest(goldenJoins[0].join(ix, 2)); d != goldenJoins[0].digest {
			t.Errorf("after saving over the mapped file: pair set %s, want %s", d, goldenJoins[0].digest)
		}
	}
}
