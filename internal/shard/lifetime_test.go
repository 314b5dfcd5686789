package shard

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/mmap"
)

// waitFor polls cond until it holds or the deadline passes, so the tests
// that watch the garbage collector unmap files stay fast when the condition
// is already true and robust on slow machines.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mappedUnder counts the mappings of this process whose file lies under dir.
func mappedUnder(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(maps, []byte(dir))
}

// TestSetsOutliveTheirShards: a cold shard's sets are headers over its mapped
// file, and a mapping goes when the shard that owns it is collected. Whatever
// outlives the shard — a compaction's merged shard takes its victims' sets,
// from a cold victim's container or a hot victim's heap view — must hold
// copies. The directory is restored cold and hot, seals add heap shards
// beside the restored ones, the small shards of both kinds are merged and
// dropped, and the restored victims' files are watched until they are
// unmapped: a merged shard that aliases one dies here with "unexpected fault
// address" in the middle of a query or a save, it does not fail an assertion.
func TestSetsOutliveTheirShards(t *testing.T) {
	x, probes, _ := churn(t, exactOptions(2, 40, 171))
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Seals after the restore: heap shards, with no container, beside the
	// restored ones. x takes the same ones, so it still answers as truth.
	more, _ := workload(100, 0.8, 173)
	seal := func(x *Index) {
		for i := 0; i < len(more); i += 40 {
			x.Add(more[i:min(i+40, len(more))])
		}
		x.Flush()
	}
	seal(x)
	probes = append(probes, more...)
	want := x.QueryBatchErr(probes)
	contained := func(x *Index) (out [][]Match) {
		for _, q := range probes[:40] {
			out = append(out, mustContain(t, x, q[:len(q)*2/3], 0.8))
		}
		return out
	}
	wantContained := contained(x)
	check := func(stage string, y *Index) {
		t.Helper()
		got := y.QueryBatchErr(probes)
		for i := range probes {
			if !equalMatches(t, got[i], want[i]) {
				t.Fatalf("%s: query %d differs from the index the directory was saved from", stage, i)
			}
		}
		for i, ms := range contained(y) {
			if !equalMatches(t, ms, wantContained[i]) {
				t.Fatalf("%s: containment query %d differs from the index the directory was saved from", stage, i)
			}
		}
	}

	for _, tier := range []Tier{TierCold, TierHot} {
		t.Run(string(tier), func(t *testing.T) {
			y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
			if err != nil {
				t.Fatal(err)
			}
			restored := len(y.shards)
			seal(y)
			smallRestored, smallSealed, kept := 0, 0, 0
			for i, sh := range y.shards {
				switch {
				case len(sh.ids) > 2*y.opt.MergeThreshold:
					kept++
				case i < restored:
					smallRestored++
				default:
					smallSealed++
				}
			}
			if smallRestored < 2 || smallSealed < 2 || kept == 0 {
				t.Fatalf("%d small restored, %d small sealed and %d other shards, built for several, several and some",
					smallRestored, smallSealed, kept)
			}
			wantCold := 0
			if tier == TierCold {
				wantCold = restored
			}
			if st := y.Stats(); st.ColdShards != wantCold {
				t.Fatalf("%s restore with seals: %d cold shards, want %d", tier, st.ColdShards, wantCold)
			}
			if res := y.Compact(); res.Merged < smallRestored+smallSealed {
				t.Fatalf("compaction merged %d shards, want the %d small ones: %+v", res.Merged, smallRestored+smallSealed, res)
			}
			// The victims are unreachable now. On Linux with real mappings, watch
			// them go: only the restored shards still in the ring keep their files.
			if mmap.Supported && runtime.GOOS == "linux" {
				waitFor(t, "the victims' files to be unmapped", func() bool {
					runtime.GC()
					return mappedUnder(t, dir) <= kept
				})
			} else {
				runtime.GC()
				runtime.GC()
			}
			check("merged", y)
			dir2 := t.TempDir()
			if err := y.Save(dir2); err != nil {
				t.Fatal(err)
			}
			z, err := Load(dir2, 2)
			if err != nil {
				t.Fatal(err)
			}
			check("merged, saved and reloaded", z)
		})
	}
}

// TestColdShardQueriedFromOnlyReference: a cold shard's trie and sets are
// views of its mapping, which goes when the shard is collected, and nothing
// but the query in flight need hold the shard — a ring swap can drop it in
// the middle of a walk. Every round loads the directory afresh, keeps one
// shard and nothing else, and lets a query be the last use of it while
// another goroutine collects garbage as fast as it can: a walk or a
// verification that outlives the KeepAlive of its mapping dies with
// "unexpected fault address", it does not fail an assertion.
func TestColdShardQueriedFromOnlyReference(t *testing.T) {
	x, dir, queries := saveWorkload(t)
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i], _ = x.shards[0].query(plan{kind: kindAll}, q, nil)
	}
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
	for round := 0; round < 10; round++ {
		y, err := LoadWithOptions(dir, LoadOptions{Tiering: TierCold})
		if err != nil {
			t.Fatal(err)
		}
		sh := y.shards[0]
		y = nil // from here on sh is the only way to the mapping
		for i, q := range queries {
			if got, _ := sh.query(plan{kind: kindAll}, q, nil); !equalMatches(t, got, want[i]) {
				t.Fatalf("round %d, query %d: differs from the shard that was saved", round, i)
			}
		}
	}
}

// TestPromotedShardOutlivesItsMapping: a hot load clones the trie and the
// sets, so the heap view it creates references no container bytes. The view
// is taken out of a hot-loaded shard, the shard and its ring are dropped, and
// once the shard files have left /proc/self/maps the view still answers as
// the saved shard did — a trie array or a set left aliasing the mapping
// faults.
func TestPromotedShardOutlivesItsMapping(t *testing.T) {
	x, dir, queries := saveWorkload(t)
	y, err := LoadWithOptions(dir, LoadOptions{Tiering: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	sh := y.shards[0]
	hot := sh.ix
	hot.SetCounters(nil) // the ring's counters point into its metrics, which point at the ring
	sh, y = nil, nil
	if mmap.Supported && runtime.GOOS == "linux" {
		waitFor(t, "the shard files to be unmapped", func() bool {
			runtime.GC()
			return mappedUnder(t, dir) == 0
		})
	} else {
		runtime.GC()
		runtime.GC()
	}
	saved := x.shards[0].ix
	for i, q := range queries {
		if got, want := hot.QueryAll(q), saved.QueryAll(q); !equalMatches(t, got, want) {
			t.Fatalf("query %d: the hot-loaded view differs from the shard that was saved once its file is unmapped", i)
		}
	}
}
