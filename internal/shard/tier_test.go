package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/snapshot"
)

// saveWorkload builds, seals and saves a small multi-shard index and
// returns the original plus its directory and probe queries.
func saveWorkload(t *testing.T) (*Index, string, [][]uint32) {
	t.Helper()
	sets, _ := workload(600, 0.8, 501)
	x := Build(sets, 0.5, &Options{Shards: 3, Seed: 11, MergeThreshold: 100, Workers: 2})
	extra, _ := workload(50, 0.8, 503)
	x.Add(extra)
	x.Flush()
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	queries := append(append([][]uint32{}, sets[:80]...), extra[:40]...)
	return x, dir, queries
}

// assertSameAnswers pins the tentpole contract: y answers every probe
// byte-identically to x, best-of and all-matches alike.
func assertSameAnswers(t *testing.T, x, y *Index, queries [][]uint32) {
	t.Helper()
	for i, q := range queries {
		id1, sim1, ok1 := mustQuery(t, x, q)
		id2, sim2, ok2 := mustQuery(t, y, q)
		if id1 != id2 || sim1 != sim2 || ok1 != ok2 {
			t.Fatalf("query %d: best-of diverges: (%d,%v,%v) vs (%d,%v,%v)",
				i, id1, sim1, ok1, id2, sim2, ok2)
		}
		if !equalMatches(t, x.QueryAllErr(q), y.QueryAllErr(q)) {
			t.Fatalf("query %d: all-matches diverge across tiers", i)
		}
	}
}

// TestColdTierRoundTrip: a cold-loaded index answers byte-identically to
// the index it was saved from, reports its tier in Stats, and can be
// saved again (raw file copy) and reloaded hot without losing anything.
func TestColdTierRoundTrip(t *testing.T) {
	x, dir, queries := saveWorkload(t)

	cold, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.ColdShards == 0 || st.HotShards != 0 {
		t.Fatalf("cold load produced %d cold / %d hot shards", st.ColdShards, st.HotShards)
	}
	assertSameAnswers(t, x, cold, queries)

	// Saving a cold index must not decode it: the shard files are copied
	// raw, and a plain (hot) reload of the copy still matches.
	dir2 := t.TempDir()
	if err := cold.Save(dir2); err != nil {
		t.Fatal(err)
	}
	hot, err := Load(dir2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := hot.Stats(); st.ColdShards != 0 {
		t.Fatalf("hot reload produced %d cold shards", st.ColdShards)
	}
	assertSameAnswers(t, x, hot, queries)
}

// TestTierGaugesFollowTheRing: the two residency gauges a scrape reads agree
// with Stats after a cold restore and after a seal beside it, without
// building a Stats to do it.
func TestTierGaugesFollowTheRing(t *testing.T) {
	_, dir, _ := saveWorkload(t)
	x, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		var buf bytes.Buffer
		if err := x.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		st := x.Stats()
		for name, want := range map[string]int{"cps_tier_hot_shards": st.HotShards, "cps_tier_cold_shards": st.ColdShards} {
			if line := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(buf.String(), line) {
				t.Fatalf("%s: scrape lacks %q (Stats: %d hot / %d cold)",
					stage, strings.TrimSpace(line), st.HotShards, st.ColdShards)
			}
		}
	}
	check("restored cold")
	extra, _ := workload(20, 0.8, 507)
	x.Add(extra)
	x.Flush()
	check("sealed beside the cold shards")
	if allocs := testing.AllocsPerRun(20, func() { x.tierCounts() }); allocs != 0 {
		t.Fatalf("tierCounts allocates %v times a call; Stats is the walk that may", allocs)
	}
}

// TestColdRingSealsOnTheHeap: a shard keeps the tier it was opened in, and a
// shard a seal builds is built on the heap. After a cold restore one seal
// leaves every restored shard cold beside one hot shard, and the ring
// answers as the all-hot one does.
func TestColdRingSealsOnTheHeap(t *testing.T) {
	_, dir, queries := saveWorkload(t)
	load := func(tier Tier) *Index {
		y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	hot, cold := load(TierHot), load(TierCold)
	restored := cold.Stats()
	extra, _ := workload(30, 0.8, 505)
	for _, y := range []*Index{hot, cold} {
		y.Add(extra)
		y.Flush()
	}
	if st := cold.Stats(); st.ColdShards != restored.ColdShards || st.HotShards != 1 {
		t.Fatalf("cold ring after one seal: %d cold / %d hot shards, want %d / 1",
			st.ColdShards, st.HotShards, restored.ColdShards)
	}
	if st := hot.Stats(); st.ColdShards != 0 {
		t.Fatalf("hot ring after one seal: %d cold shards", st.ColdShards)
	}
	assertSameAnswers(t, hot, cold, append(queries, extra...))
}

// TestAutoTierRejected: there are two tiers. The name an earlier build also
// took is refused with a message that names them.
func TestAutoTierRejected(t *testing.T) {
	if _, err := ParseTier("auto"); err == nil || !strings.Contains(err.Error(), "want hot or cold") {
		t.Fatalf("ParseTier(auto): %v, want an error naming hot and cold", err)
	}
}

// TestLoadShardErrorNamesFile is the regression test for the latent Load
// bug where any unreadable shard file was reported as manifest
// corruption: the error must name the per-shard file and wrap the
// underlying cause.
func TestLoadShardErrorNamesFile(t *testing.T) {
	x, dir, _ := saveWorkload(t)
	_ = x

	var shardFile string
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) == 0 {
		t.Fatal("saved index has no sealed shards")
	}
	shardFile = m.Shards[0].File

	// A dangling symlink fails at open with the real cause even when the
	// test runs as root (unlike permission bits).
	path := filepath.Join(dir, shardFile)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("does-not-exist", path); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []Tier{TierHot, TierCold} {
		_, err = LoadWithOptions(dir, LoadOptions{Tiering: tier})
		if err == nil {
			t.Fatalf("%s load of an unreadable shard succeeded", tier)
		}
		if !strings.Contains(err.Error(), shardFile) {
			t.Fatalf("%s load error %q does not name shard file %q", tier, err, shardFile)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s load error %q does not wrap the underlying open error", tier, err)
		}
	}
}

// TestTracedBestQueryStatsAcrossTiers: a traced best-match query reports
// the same per-shard candidate pipeline counts whether the ring is hot or
// cold — cold shards used to take the stats-less branch and report zeros.
func TestTracedBestQueryStatsAcrossTiers(t *testing.T) {
	_, dir, queries := saveWorkload(t)
	load := func(tier Tier) *Index {
		y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	hot, cold := load(TierHot), load(TierCold)
	for qi, q := range queries {
		var ht, ct QueryTrace
		hres, err := hot.Search(Request{Set: q}, &ht)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cold.Search(Request{Set: q}, &ct)
		if err != nil {
			t.Fatal(err)
		}
		if hres.Best != cres.Best || hres.Found != cres.Found {
			t.Fatalf("query %d: traced answers diverge across tiers", qi)
		}
		if len(ht.Shards) != len(ct.Shards) || ht.Candidates == 0 {
			t.Fatalf("query %d: %d hot / %d cold trace entries, %d candidates", qi, len(ht.Shards), len(ct.Shards), ht.Candidates)
		}
		for i := range ht.Shards {
			h, c := ht.Shards[i], ct.Shards[i]
			if h.Candidates != c.Candidates || h.Verified != c.Verified || h.Matches != c.Matches {
				t.Fatalf("query %d shard %d: hot %d/%d/%d, cold %d/%d/%d (candidates/verified/matches)",
					qi, i, h.Candidates, h.Verified, h.Matches, c.Candidates, c.Verified, c.Matches)
			}
			if wantKind := "cold"; c.Kind != "buffer" && c.Kind != wantKind {
				t.Fatalf("query %d shard %d: cold ring entry has kind %q", qi, i, c.Kind)
			}
		}
	}
}

// TestSaveBytesIndependentOfTier: the files a ring saves — the manifest and
// every shard file — are the same bytes whether each shard was encoded from
// the heap (a fresh build) or copied out of the container a hot or a cold
// load kept. The churned input holds a deleted id in each place one can
// be: still in the side buffer, still in a sealed shard, dropped by a seal
// and dropped by a compaction, so the manifest's two halves of the deleted
// set (tombstones, dropped_bitmap) round-trip byte for byte too.
func TestSaveBytesIndependentOfTier(t *testing.T) {
	// savedBytes returns the manifest followed by the shard files it names.
	savedBytes := func(dir string) [][]byte {
		t.Helper()
		m, err := snapshot.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{snapshot.ManifestFile}
		for _, e := range m.Shards {
			names = append(names, e.File)
		}
		var out [][]byte
		for _, name := range names {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw)
		}
		return out
	}
	check := func(input string, x *Index, dir string) {
		t.Helper()
		want := savedBytes(dir)
		resave := func(name string, y *Index) {
			t.Helper()
			d := t.TempDir()
			if err := y.Save(d); err != nil {
				t.Fatal(err)
			}
			got := savedBytes(d)
			if len(got) != len(want) {
				t.Fatalf("%s, %s: saved %d files, want %d", input, name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s, %s: file %d (0 is the manifest) differs from the first save", input, name, i)
				}
			}
		}
		resave("second save", x)
		for _, tier := range []Tier{TierHot, TierCold} {
			y, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Tiering: tier})
			if err != nil {
				t.Fatal(err)
			}
			resave(string(tier)+" load", y)
		}
	}
	x, dir, _ := saveWorkload(t)
	check("fresh build", x, dir)

	x, _, _ = churn(t, exactOptions(2, 40, 151))
	x.Compact() // drops the churn's deleted ids from the merged shards
	x.Delete(0) // held by a primary shard
	extra, _ := workload(5, 0.8, 509)
	x.Delete(x.Add(extra[:3])[0])
	x.Flush()                      // the seal drops it
	x.Delete(x.Add(extra[3:5])[0]) // held by the side buffer
	st := x.Stats()
	if st.Tombstones != 2 || st.Reclaimed < 2 || st.Buffered != 2 {
		t.Fatalf("churned input: %+v", st)
	}
	dir = t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	check("churned", x, dir)
}

// aliases reports whether words lies inside data.
func aliases(data []byte, words []uint32) bool {
	lo, p := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&words[0]))
	return p >= lo && p < lo+uintptr(len(data))
}
