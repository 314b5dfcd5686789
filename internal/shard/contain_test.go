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
	"repro/internal/minhash"
	"repro/internal/mmap"
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
					got := mustContain(t, x, q, th)
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
				answers = append(answers, mustContain(t, x, q, th)...)
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
		if _, err := x.Search(Request{Set: sets[0], Mode: ModeContainment, Threshold: bad}, nil); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("threshold %v: error %v, want a bad-request rejection", bad, err)
		}
	}
	if ms := mustContain(t, x, nil, 0.5); ms != nil {
		t.Fatalf("empty query: %v, want nil", ms)
	}
	empty := Build(nil, 0.5, &Options{})
	if ms := mustContain(t, empty, sets[0], 0.5); len(ms) != 0 {
		t.Fatalf("empty index: %v, want no matches", ms)
	}
	// t=1 is valid: exact full containment.
	mustContain(t, x, sets[0][:5], 1)
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
			if !equalMatches(t, mustContain(t, y, q, th), mustContain(t, x, q, th)) {
				t.Fatalf("probe %d t=%v: answers differ across save/load", pi, th)
			}
		}
	}
}

// saveOneShard saves a one-shard index of sets to a fresh directory and
// returns the directory and the shard file's path.
func saveOneShard(t *testing.T, sets [][]uint32) (dir, path string) {
	t.Helper()
	x := Build(sets, 0.5, &Options{Shards: 1, Seed: 37})
	dir = t.TempDir()
	if err := x.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, m.Shards[0].File)
}

// rewriteContainSection rewrites the shard file at path with edit applied to
// its contain payload (nil drops the section), every checksum fresh.
func rewriteContainSection(t *testing.T, path string, edit func(payload []byte) []byte) {
	t.Helper()
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
}

// editFile applies edit to the bytes of the file at path, checksums left as
// they were.
func editFile(t *testing.T, path string, edit func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// corruptShard is one way to damage a saved one-shard directory's shard file,
// and the text its load error must carry.
type corruptShard struct {
	name    string
	corrupt func(t *testing.T, path string)
	want    string
}

// checkLoadsRejected saves sets as one shard once per case, applies the case,
// and requires LoadWithOptions to fail hot and cold alike, with ErrCorrupt,
// the same message and the shard file's name: a load validates every section
// of every shard file, in either tier, so what loads cannot fail a query later.
func checkLoadsRejected(t *testing.T, sets [][]uint32, cases []corruptShard) {
	t.Helper()
	for _, tc := range cases {
		dir, path := saveOneShard(t, sets)
		tc.corrupt(t, path)
		var msgs []string
		for _, tier := range []Tier{TierHot, TierCold} {
			_, err := LoadWithOptions(dir, LoadOptions{Tiering: tier})
			if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), filepath.Base(path)) {
				t.Errorf("%s: %s load err = %v, want ErrCorrupt naming %s and mentioning %q",
					tc.name, tier, err, filepath.Base(path), tc.want)
				continue
			}
			msgs = append(msgs, err.Error())
		}
		if len(msgs) == 2 && msgs[0] != msgs[1] {
			t.Errorf("%s: hot load says %q, cold load %q", tc.name, msgs[0], msgs[1])
		}
	}
}

// TestLoadRejectsCorruptShard: a flipped byte in any section of a shard file
// fails its checksum at load, in either tier.
func TestLoadRejectsCorruptShard(t *testing.T) {
	sets, _ := workload(120, 0.8, 441)
	flip := func(section string) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			editFile(t, path, func(raw []byte) []byte {
				snap, err := snapshot.OpenMapped(raw, shardKind)
				if err != nil {
					t.Fatal(err)
				}
				sec := snap.Lookup(section)
				raw[sec.Off+sec.Len/2] ^= 0x10
				return raw
			})
		}
	}
	checkLoadsRejected(t, sets, []corruptShard{
		{"trees flipped", flip("trees"), `section "trees": checksum mismatch`},
		{"sets flipped", flip("sets"), `section "sets": checksum mismatch`},
		{"ids flipped", flip("ids"), `section "ids": checksum mismatch`},
		{"contain flipped", flip("contain"), `section "contain": checksum mismatch`},
	})
}

// TestLoadColdCorruptShard: a truncated shard file fails the container walk
// at load, cold as hot — never a panic from the mapped decoder.
func TestLoadColdCorruptShard(t *testing.T) {
	sets, _ := workload(120, 0.8, 441)
	checkLoadsRejected(t, sets, []corruptShard{
		{"truncated", func(t *testing.T, path string) {
			editFile(t, path, func(raw []byte) []byte { return raw[:len(raw)/2] })
		}, "exceeds remaining"},
	})
}

// TestLoadRejectsMissingContainSection: every container carries its containment
// signatures, so a loaded shard never signs its sets. A shard file without the
// section, or with one whose 16-byte header, re-sealed with a fresh checksum,
// does not describe the shard and the matrix behind it or names a T or seed
// other than the ring's, is corrupt — its candidates would not be the ring's —
// and a load refuses it in either tier.
func TestLoadRejectsMissingContainSection(t *testing.T) {
	sets, _ := workload(120, 0.8, 441)
	le := binary.LittleEndian
	contain := func(edit func(payload []byte) []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) { rewriteContainSection(t, path, edit) }
	}
	checkLoadsRejected(t, sets, []corruptShard{
		{"missing", contain(func([]byte) []byte { return nil }), "missing section"},
		{"T = 0", contain(func(b []byte) []byte { le.PutUint32(b[0:], 0); return b }), "implausible signature length"},
		{"T past the cap", contain(func(b []byte) []byte { le.PutUint32(b[0:], 1<<16+1); return b }), "implausible signature length"},
		{"n of another shard", contain(func(b []byte) []byte { le.PutUint32(b[12:], 121); return b }), "covers 121 sets"},
		{"another seed", contain(func(b []byte) []byte { le.PutUint64(b[4:], le.Uint64(b[4:])+1); return b }), "the ring signs under"},
		{"another T", contain(func(b []byte) []byte { le.PutUint32(b[0:], 32); return b }), "signed under T=32"},
		{"matrix a word short", contain(func(b []byte) []byte { return b[:len(b)-4] }), "signature bytes"},
		{"matrix a byte over", contain(func(b []byte) []byte { return append(b, 0) }), "signature bytes"},
		{"header truncated", contain(func(b []byte) []byte { return b[:15] }), "truncated"},
	})
}

// TestColdContainmentReadsInPlace: a containment query leaves a cold shard
// cold. The side holds no sets — candidates are verified against the token
// region of the container, like any cold query — and its signature matrix is
// the container's own, 4-aligned behind the section's 16-byte header. Answers
// are those of the hot restore.
func TestColdContainmentReadsInPlace(t *testing.T) {
	sets, _ := workload(300, 0.8, 443)
	dir, path := saveOneShard(t, sets)
	rewriteContainSection(t, path, func(b []byte) []byte { return b })
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
			if !equalMatches(t, mustContain(t, cold, q, th), mustContain(t, hot, q, th)) {
				t.Fatalf("probe %d t=%v: cold answers differ from hot", pi, th)
			}
		}
	}
	s := cold.shards[0]
	if !s.cold || cold.Stats().ColdShards != 1 {
		t.Fatal("a containment query moved a cold shard's sets to the heap")
	}
	sec := s.snap.Lookup("contain")
	if (sec.Off+16)%4 != 0 || sec.Len != int64(16+4*64*len(sets)) {
		t.Fatalf("contain section at %d+%d: the matrix does not start 16 bytes in, 4-aligned", sec.Off, sec.Len)
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return // a big-endian host converts; nothing aliases
	}
	if data := s.snap.Bytes(); !aliases(data, s.contain.Load().Signatures()) || !aliases(data, s.ix.Sets()[0]) {
		t.Fatal("a cold shard's signatures or sets are heap copies of its container")
	}
	runtime.KeepAlive(s)
}

// TestColdTrieReadsInPlace: a cold load validates each shard's trie where the
// container holds it. The whole load — every checksum, the trie's
// validation, the set headers, the id map — allocates a fraction of the trees
// section's size beside the MinHash signer every load draws (a function of T
// and the seed, not of the data): a decoder that copied the five arrays would
// allocate all of it. The first query after it validates nothing and copies
// no trie, and queries leave the shard cold. (The arrays themselves are
// cpindex's; TestMappedTrieReadsInPlace there checks they alias the file.)
func TestColdTrieReadsInPlace(t *testing.T) {
	sets, _ := workload(2000, 0.8, 461)
	want := Build(sets, 0.5, &Options{Shards: 1, Seed: 37})
	dir := t.TempDir()
	if err := want.Save(dir); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	signer := allocated(func() { minhash.NewSigner(want.shards[0].ix.Options().T, 1) })
	var cold *Index
	load := allocated(func() {
		var err error
		if cold, err = LoadWithOptions(dir, LoadOptions{Tiering: TierCold}); err != nil {
			t.Fatal(err)
		}
	})
	var first []Match
	query := allocated(func() { first = cold.QueryAllErr(sets[0]) })
	trees := cold.shards[0].snap.Lookup("trees").Len
	t.Logf("cold load allocated %d B (%d B of it the signer), first query %d B, beside a trees section of %d B",
		load, signer, query, trees)
	// Without mmap the load reads the whole file onto the heap, so only the
	// first query is bounded there.
	loadCopied := mmap.Supported && load-signer > trees/4
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && !race.Enabled && (loadCopied || query > trees/4) {
		t.Errorf("the trie was copied: the cold load allocated %d B beside its signer, the first query %d B; the trees section holds %d",
			load-signer, query, trees)
	}
	if !equalMatches(t, first, want.QueryAllErr(sets[0])) {
		t.Fatal("first query: cold answers differ from the index that was saved")
	}
	for i := 0; i < len(sets); i += 20 {
		if !equalMatches(t, cold.QueryAllErr(sets[i]), want.QueryAllErr(sets[i])) {
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
		for _, q := range containProbes(sets, 20) {
			mustContain(t, x, q, 0.7)
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
				want := mustContain(t, plain, q, th)
				for rep := 0; rep < 2; rep++ { // second rep is the cache hit
					if !equalMatches(t, mustContain(t, cached, q, th), want) {
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
	x.QueryAllErr(sets[0])
	if sub.contain.Load() != nil {
		t.Fatal("containment side built eagerly; the lazy contract changed")
	}
	mustContain(t, x, sets[0], 0.5)
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
