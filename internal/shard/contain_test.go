package shard

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cpindex"
	"repro/internal/intset"
	"repro/internal/race"
	"repro/internal/snapshot"
)

// containThresholds is the threshold grid the containment tests probe.
var containThresholds = []float64{0.5, 0.7, 1.0}

// containProbes derives containment probes from the indexed sets: every
// stride-th set thinned to a deterministic ~2/3 subset, so each probe is
// fully contained by at least its source set. A subset of a sorted set
// stays sorted.
func containProbes(sets [][]uint32, count int) [][]uint32 {
	if count > len(sets) {
		count = len(sets)
	}
	probes := make([][]uint32, 0, count)
	for i := 0; i < count; i++ {
		src := sets[i*len(sets)/count]
		var q []uint32
		for j, tok := range src {
			if j%3 != 0 {
				q = append(q, tok)
			}
		}
		if len(q) == 0 {
			q = src[:1]
		}
		probes = append(probes, q)
	}
	return probes
}

// bruteContain is the reference answer: every live id whose set contains
// at least t of q, with the exact containment score, ascending id.
func bruteContain(sets [][]uint32, dead map[int]bool, q []uint32, t float64) []cpindex.Match {
	var out []cpindex.Match
	for id, s := range sets {
		if dead[id] || s == nil {
			continue
		}
		if sim, ok := intset.ContainmentAtLeast(q, s, t); ok {
			out = append(out, cpindex.Match{ID: id, Sim: sim})
		}
	}
	return out
}

// TestQueryContainAgainstBruteForce pins the containment contract on a
// churned index (sealed primaries, buffered appends, tombstones), for
// both partition schemes and several shard counts:
//   - precision is exactly 1.0: every returned match is in the brute-force
//     truth with the exact containment score, in strictly ascending id
//     order, and never a deleted id;
//   - buffered appends have recall 1.0 (they are scanned exactly);
//   - aggregate recall over the probe grid clears the CI floor by a wide
//     margin (the candidate structure is approximate, so per-probe recall
//     is not 1.0 — but it must not be quietly broken either).
func TestQueryContainAgainstBruteForce(t *testing.T) {
	sets, _ := workload(600, 0.8, 401)
	extra, _ := workload(40, 0.8, 403)
	probes := containProbes(sets, 120)
	probes = append(probes, containProbes(extra, 20)...)

	for _, part := range []Partition{PartitionContiguous, PartitionHash} {
		for _, shards := range []int{1, 4} {
			x := Build(sets, 0.5, &Options{
				Shards: shards, Partition: part, Seed: 17, MergeThreshold: 500, Workers: 2,
			})
			bufferedIDs := x.Add(extra) // stays buffered: threshold not reached
			if st := x.Stats(); st.Buffered != len(extra) {
				t.Fatalf("%v/%d: setup buffered %d, want %d", part, shards, st.Buffered, len(extra))
			}
			all := append(append([][]uint32{}, sets...), extra...)
			dead := map[int]bool{3: true, 77: true, bufferedIDs[5]: true}
			for id := range dead {
				if !x.Delete(id) {
					t.Fatalf("%v/%d: Delete(%d) found nothing", part, shards, id)
				}
			}
			buffered := map[int]bool{}
			for _, id := range bufferedIDs {
				buffered[id] = true
			}

			var truthPairs, hits int
			for pi, q := range probes {
				for _, th := range containThresholds {
					truth := bruteContain(all, dead, q, th)
					inTruth := make(map[int]float64, len(truth))
					for _, m := range truth {
						inTruth[m.ID] = m.Sim
					}
					got, err := x.QueryContain(q, th)
					if err != nil {
						t.Fatalf("%v/%d: probe %d t=%v: %v", part, shards, pi, th, err)
					}
					for i, m := range got {
						if i > 0 && got[i-1].ID >= m.ID {
							t.Fatalf("%v/%d: probe %d t=%v: ids not strictly ascending: %v",
								part, shards, pi, th, got)
						}
						if dead[m.ID] {
							t.Fatalf("%v/%d: probe %d t=%v: deleted id %d returned",
								part, shards, pi, th, m.ID)
						}
						want, ok := inTruth[m.ID]
						if !ok || want != m.Sim {
							t.Fatalf("%v/%d: probe %d t=%v: match %+v not in truth (want sim %v, in truth %v)",
								part, shards, pi, th, m, want, ok)
						}
					}
					returned := make(map[int]bool, len(got))
					for _, m := range got {
						returned[m.ID] = true
					}
					for _, m := range truth {
						truthPairs++
						if returned[m.ID] {
							hits++
						} else if buffered[m.ID] {
							t.Fatalf("%v/%d: probe %d t=%v: buffered id %d missed (buffer scans are exact)",
								part, shards, pi, th, m.ID)
						}
					}
				}
			}
			if truthPairs == 0 {
				t.Fatalf("%v/%d: degenerate workload: empty truth", part, shards)
			}
			if recall := float64(hits) / float64(truthPairs); recall < 0.9 {
				t.Fatalf("%v/%d: aggregate recall %.3f (%d/%d) below 0.9",
					part, shards, recall, hits, truthPairs)
			}
		}
	}
}

// TestQueryContainIdenticalAcrossTopologies pins the determinism leg of
// the contract: with one index seed, containment answers are
// byte-identical for every shard count, partition scheme and worker
// count — the signer is seeded globally (ContainSeed), not per shard, so
// candidacy is a property of (q, y, seed) alone.
func TestQueryContainIdenticalAcrossTopologies(t *testing.T) {
	sets, _ := workload(500, 0.8, 411)
	extra, _ := workload(30, 0.8, 413)
	probes := containProbes(sets, 60)

	type config struct {
		shards  int
		part    Partition
		workers int
	}
	configs := []config{
		{1, PartitionContiguous, 0},
		{4, PartitionContiguous, 4},
		{4, PartitionHash, 0},
		{4, PartitionHash, 4},
	}
	var ref [][]cpindex.Match
	for ci, c := range configs {
		x := Build(sets, 0.5, &Options{
			Shards: c.shards, Partition: c.part, Seed: 23, MergeThreshold: 500, Workers: c.workers,
		})
		x.Add(extra)
		x.Delete(11)
		x.Delete(len(sets) + 7)
		var answers []cpindex.Match
		for _, q := range probes {
			for _, th := range containThresholds {
				ms, err := x.QueryContain(q, th)
				if err != nil {
					t.Fatalf("config %d: %v", ci, err)
				}
				answers = append(answers, ms...)
				answers = append(answers, cpindex.Match{ID: -1}) // probe separator
			}
		}
		if ci == 0 {
			ref = append(ref, answers)
			continue
		}
		if !equalMatches(t, answers, ref[0]) {
			t.Fatalf("config %+v: containment answers differ from single-shard reference", c)
		}
	}
}

// TestQueryContainValidation covers the error surface: thresholds outside
// (0,1] are rejected, empty queries and empty indexes answer empty.
func TestQueryContainValidation(t *testing.T) {
	sets, _ := workload(80, 0.8, 421)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 5})
	for _, bad := range []float64{0, -0.5, 1.0001, 2} {
		if _, err := x.QueryContain(sets[0], bad); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("threshold %v: error %v, want a bad-request rejection", bad, err)
		}
	}
	if ms, err := x.QueryContain(nil, 0.5); err != nil || ms != nil {
		t.Fatalf("empty query: (%v, %v), want (nil, nil)", ms, err)
	}
	empty := Build(nil, 0.5, &Options{})
	if ms, err := empty.QueryContain(sets[0], 0.5); err != nil || len(ms) != 0 {
		t.Fatalf("empty index: (%v, %v), want no matches", ms, err)
	}
	// t=1 is valid: exact full containment.
	if _, err := x.QueryContain(sets[0][:5], 1); err != nil {
		t.Fatalf("t=1: %v", err)
	}
}

// TestQueryContainSaveLoadRoundTrip: a snapshot persists the containment
// signatures, so a loaded index answers byte-identically
// without rebuilding — including for an index that never served a
// containment query before Save (encoding forces the signing).
func TestQueryContainSaveLoadRoundTrip(t *testing.T) {
	sets, _ := workload(400, 0.8, 431)
	extra, _ := workload(25, 0.8, 433)
	probes := containProbes(sets, 50)
	build := func() *Index {
		x := Build(sets, 0.5, &Options{Shards: 3, Seed: 29, MergeThreshold: 500, Workers: 2})
		x.Add(extra)
		x.Delete(9)
		return x
	}

	// never-queried twin: Save must sign, and the loaded answers must equal
	// a fresh index's.
	x := build()
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pi, q := range probes {
		for _, th := range containThresholds {
			want, err1 := x.QueryContain(q, th)
			got, err2 := y.QueryContain(q, th)
			if err1 != nil || err2 != nil {
				t.Fatalf("probe %d t=%v: errs %v / %v", pi, th, err1, err2)
			}
			if !equalMatches(t, got, want) {
				t.Fatalf("probe %d t=%v: answers differ across save/load", pi, th)
			}
		}
	}
}

// rewriteContainSection saves a one-shard index of sets to a fresh directory
// and rewrites the shard file with edit applied to its contain payload
// (nil drops the section), every checksum fresh.
func rewriteContainSection(t *testing.T, sets [][]uint32, edit func(payload []byte) []byte) string {
	t.Helper()
	x := Build(sets, 0.5, &Options{Shards: 1, Seed: 37})
	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Shards[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.OpenMapped(raw, shardKind)
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.WriteFile(path, shardKind, func(w *snapshot.Writer) error {
		for _, sec := range snap.Sections() {
			payload := raw[sec.Off : sec.Off+sec.Len]
			if sec.Name == "contain" {
				if payload = edit(append([]byte(nil), payload...)); payload == nil {
					continue
				}
			}
			if err := w.Section(sec.Name, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadRejectsMissingContainSection: every container carries its containment
// signatures, so a loaded shard never signs its sets. A shard file without the
// section, or with one whose 16-byte header does not describe the shard and the
// matrix behind it or names a T or seed other than the ring's, is corrupt — its
// candidates would not be the ring's: a hot load refuses it, and a cold load
// (which reads sections lazily) errors on the first containment query instead
// of rebuilding.
func TestLoadRejectsMissingContainSection(t *testing.T) {
	sets, _ := workload(120, 0.8, 441)
	le := binary.LittleEndian
	for _, tc := range []struct {
		name string
		edit func(payload []byte) []byte
		want string
	}{
		{"missing", func([]byte) []byte { return nil }, "missing section"},
		{"T = 0", func(b []byte) []byte { le.PutUint32(b[0:], 0); return b }, "implausible signature length"},
		{"T past the cap", func(b []byte) []byte { le.PutUint32(b[0:], 1<<16+1); return b }, "implausible signature length"},
		{"n of another shard", func(b []byte) []byte { le.PutUint32(b[12:], 121); return b }, "covers 121 sets"},
		{"another seed", func(b []byte) []byte { le.PutUint64(b[4:], le.Uint64(b[4:])+1); return b }, "the ring signs under"},
		{"another T", func(b []byte) []byte { le.PutUint32(b[0:], 32); return b }, "signed under T=32"},
		{"matrix a word short", func(b []byte) []byte { return b[:len(b)-4] }, "signature bytes"},
		{"matrix a byte over", func(b []byte) []byte { return append(b, 0) }, "signature bytes"},
		{"header truncated", func(b []byte) []byte { return b[:15] }, "truncated"},
	} {
		dir := rewriteContainSection(t, sets, tc.edit)
		if _, err := LoadWithOptions(dir, LoadOptions{Tiering: TierHot}); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: hot load err = %v, want ErrCorrupt mentioning %q", tc.name, err, tc.want)
		}
		cold, err := LoadWithOptions(dir, LoadOptions{Tiering: TierCold})
		if err != nil {
			t.Errorf("%s: cold load reads no contain section, yet failed: %v", tc.name, err)
			continue
		}
		if _, err := cold.QueryContain(sets[0], 0.5); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: cold containment query err = %v, want ErrCorrupt mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestColdContainmentReadsInPlace: a containment query leaves a cold shard
// cold. The side holds no sets — candidates are verified against the token
// region of the container, like any cold query — and its signature matrix is
// the container's own, 4-aligned behind the section's 16-byte header. Answers
// are those of the hot restore.
func TestColdContainmentReadsInPlace(t *testing.T) {
	sets, _ := workload(300, 0.8, 443)
	dir := rewriteContainSection(t, sets, func(b []byte) []byte { return b })
	hot, err := LoadWithOptions(dir, LoadOptions{Tiering: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := LoadWithOptions(dir, LoadOptions{Tiering: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	for pi, q := range containProbes(sets, 40) {
		for _, th := range containThresholds {
			want, err := hot.QueryContain(q, th)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cold.QueryContain(q, th)
			if err != nil {
				t.Fatal(err)
			}
			if !equalMatches(t, got, want) {
				t.Fatalf("probe %d t=%v: cold answers differ from hot", pi, th)
			}
		}
	}
	s := cold.shards[0]
	r := &s.res
	if !s.isCold() || cold.Stats().ColdShards != 1 {
		t.Fatal("a containment query moved a cold shard's sets to the heap")
	}
	sec := r.snap.Lookup("contain")
	if (sec.Off+16)%4 != 0 || sec.Len != int64(16+4*64*len(sets)) {
		t.Fatalf("contain section at %d+%d: the matrix does not start 16 bytes in, 4-aligned", sec.Off, sec.Len)
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return // a big-endian host converts; nothing aliases
	}
	view, err := r.cold.View()
	if err != nil {
		t.Fatal(err)
	}
	if data := r.snap.Bytes(); !aliases(data, s.contain.Load().Signatures()) || !aliases(data, view[0]) {
		t.Fatal("a cold shard's signatures or sets are heap copies of its container")
	}
	runtime.KeepAlive(s)
}

// TestColdTrieReadsInPlace: the first touch of a cold shard validates its
// trie where the container holds it. Queries leave the shard cold, and the
// whole first query — both checksums, the trie's validation, the set headers
// — allocates a fraction of the trees section's size: a decoder that copied
// the five arrays would allocate all of it. (The arrays themselves are
// cpindex's; TestMappedTrieReadsInPlace there checks they alias the file.)
func TestColdTrieReadsInPlace(t *testing.T) {
	sets, _ := workload(2000, 0.8, 461)
	want := Build(sets, 0.5, &Options{Shards: 1, Seed: 37})
	dir := t.TempDir()
	if err := want.Save(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := LoadWithOptions(dir, LoadOptions{Tiering: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	trees := cold.shards[0].res.snap.Lookup("trees").Len
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	first := mustQueryAll(t, cold, sets[0])
	runtime.ReadMemStats(&after)
	if !equalMatches(t, first, mustQueryAll(t, want, sets[0])) {
		t.Fatal("first query: cold answers differ from the index that was saved")
	}
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("first touch allocated %d B beside a trees section of %d B", allocated, trees)
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && !race.Enabled && allocated > trees/4 {
		t.Errorf("first touch allocated %d B, the trees section holds %d: the trie was copied", allocated, trees)
	}
	for i := 0; i < len(sets); i += 20 {
		if !equalMatches(t, mustQueryAll(t, cold, sets[i]), mustQueryAll(t, want, sets[i])) {
			t.Fatalf("query %d: cold answers differ from the index that was saved", i)
		}
	}
	if got := cold.Stats().ColdShards; got != 1 {
		t.Fatalf("cold_shards = %d after similarity queries, want 1", got)
	}
}

// TestRingSharesOneSigner: ContainSeed is ring-wide, so the shards of a ring —
// built, sealed or restored from their containers — draw no hash functions of
// their own: every containment side holds the ring's one signer, under which
// a query is signed once for all of them.
func TestRingSharesOneSigner(t *testing.T) {
	sets, _ := workload(600, 0.8, 471)
	built := Build(sets[:500], 0.5, &Options{Shards: 3, Seed: 43, MergeThreshold: 50})
	built.Add(sets[500:])
	built.Flush()
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := LoadWithOptions(dir, LoadOptions{Tiering: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Index{"built": built, "restored cold": cold} {
		for pi, q := range containProbes(sets, 20) {
			if _, err := x.QueryContain(q, 0.7); err != nil {
				t.Fatalf("%s: probe %d: %v", name, pi, err)
			}
		}
		if len(x.shards) < 4 {
			t.Fatalf("%s: %d shards, built for a sealed one beside the three", name, len(x.shards))
		}
		for i, sh := range x.shards {
			if c := sh.contain.Load(); c == nil || c.Signer() != x.signer.get() {
				t.Fatalf("%s: shard %d has no containment side after a query, or one with a signer of its own", name, i)
			}
		}
	}
}

// TestQueryContainCache: containment answers are cached under their own
// key kind (keyed by threshold too), stay correct across thresholds, and
// invalidate on mutation like every cached answer.
func TestQueryContainCache(t *testing.T) {
	sets, _ := workload(300, 0.8, 451)
	probes := containProbes(sets, 30)
	cached := Build(sets, 0.5, &Options{Shards: 2, Seed: 41, Workers: 2})
	plain := Build(sets, 0.5, &Options{Shards: 2, Seed: 41, Workers: 2})
	if err := cached.Configure(RuntimeOptions{CacheSize: 16}); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		for pi, q := range probes {
			for _, th := range containThresholds {
				want, _ := plain.QueryContain(q, th)
				for rep := 0; rep < 2; rep++ { // second rep is the cache hit
					got, err := cached.QueryContain(q, th)
					if err != nil {
						t.Fatalf("%s: probe %d t=%v rep %d: %v", stage, pi, th, rep, err)
					}
					if !equalMatches(t, got, want) {
						t.Fatalf("%s: probe %d t=%v rep %d: cached answers diverge", stage, pi, th, rep)
					}
				}
			}
		}
	}
	check("cold")
	// Mutation bumps the version: stale entries must never resurface.
	for _, id := range []int{2, 55, 121} {
		cached.Delete(id)
		plain.Delete(id)
	}
	check("after delete")
}

// TestContainSideIsLazy: similarity-only workloads never pay for the
// containment side — Build leaves it unbuilt, the first containment query
// (or encode) builds it once.
func TestContainSideIsLazy(t *testing.T) {
	sets, _ := workload(50, 0.8, 461)
	x := Build(sets, 0.5, &Options{Shards: 1, Seed: 3})
	sub := x.shards[0]
	mustQueryAll(t, x, sets[0])
	if sub.contain.Load() != nil {
		t.Fatal("containment side built eagerly; the lazy contract changed")
	}
	if _, err := x.QueryContain(sets[0], 0.5); err != nil {
		t.Fatal(err)
	}
	if sub.contain.Load() == nil {
		t.Fatal("containment side not built by the first containment query")
	}
}

// TestConfigureValidationAndPersistence: Configure rejects invalid
// options, reports the applied state via Runtime, survives a Save/Load
// cycle, and a manifest smuggling invalid runtime state is rejected as
// corrupt.
func TestConfigureValidationAndPersistence(t *testing.T) {
	sets, _ := workload(200, 0.8, 471)
	x := Build(sets, 0.5, &Options{Shards: 2, Seed: 13, Workers: 2})

	if err := x.Configure(RuntimeOptions{CacheSize: -1}); err == nil {
		t.Fatal("negative cache size accepted")
	}
	if got := x.Runtime(); got != (RuntimeOptions{}) {
		t.Fatalf("a rejected Configure changed the runtime options: %+v", got)
	}
	want := RuntimeOptions{AutoCompact: true, CacheSize: 32}
	if err := x.Configure(want); err != nil {
		t.Fatal(err)
	}
	if got := x.Runtime(); got != want {
		t.Fatalf("Runtime() = %+v, want %+v", got, want)
	}

	dir := t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.Runtime(); got != want {
		t.Fatalf("Runtime() after reload = %+v, want %+v", got, want)
	}
	// The restored configuration changes no answer.
	probes := containProbes(sets, 20)
	for pi, q := range probes {
		id1, s1, ok1 := mustQuery(t, x, q)
		id2, s2, ok2 := mustQuery(t, y, q)
		if id1 != id2 || s1 != s2 || ok1 != ok2 {
			t.Fatalf("probe %d: similarity answer changed across configured reload", pi)
		}
	}

	// Back to defaults: a zero runtime is not persisted, and a reload
	// starts on the defaults again.
	if err := y.Configure(RuntimeOptions{}); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := y.Save(dir2); err != nil {
		t.Fatal(err)
	}
	z, err := Load(dir2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.Runtime(); got != (RuntimeOptions{}) {
		t.Fatalf("Runtime() after default reload = %+v, want zero", got)
	}

	// A manifest with invalid runtime state must fail Load as corrupt, not
	// half-apply it.
	mpath := filepath.Join(dir, snapshot.ManifestFile)
	mraw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(mraw), `"cache_size": 32`, `"cache_size": -5`, 1)
	if patched == string(mraw) {
		t.Fatalf("manifest carries no cache_size marker:\n%s", mraw)
	}
	if err := os.WriteFile(mpath, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 2); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Load with invalid runtime state: %v, want ErrCorrupt", err)
	}
}
