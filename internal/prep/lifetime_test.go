package prep_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bayeslsh"
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
	}, "85d10547e9f145859938d0b4162f220c371804b4c2ce4dd16d5507ecb3ab3b5e"},
	{"lshjoin", func(ix *prep.Index, workers int) []verify.Pair {
		pairs, _ := lshjoin.JoinIndexed(ix, 0.5, &lshjoin.Options{Seed: 42, Workers: workers})
		return pairs
	}, "867fee6e2a59767be20797d2f5d01e08d7aaf92f7e0ccad0a57b0724541cdaae"},
	{"bayeslsh", func(ix *prep.Index, workers int) []verify.Pair {
		pairs, _ := bayeslsh.JoinIndexed(ix, 0.5, &bayeslsh.Options{Seed: 42, Workers: workers})
		return pairs
	}, "171ca5089196b385e1b0de55bb61ee6d1db98b632386157f3cc6ee4299e67e86"},
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
