package cpindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/race"
)

// goldenShapes are the index shapes the removed pointer-tree walk was
// compared against the flat engine on; goldenDigests were recorded from
// that pointer walk (the pointer layout, at the commit before it was
// deleted) with goldenDigest below, so the one remaining kernel is pinned to the
// reference implementation's answers and QueryStats, not to itself.
var goldenShapes = []struct {
	n, leafSize   int
	nodes, leaves int
	digest        string
}{
	{400, 4, 12972, 10193, "8f5e95150bc547760bee342ed04cabd2aa702c34fa10df26f83704c6be799c27"},
	{1500, 32, 13930, 13925, "502e71cc15b0ec5b2a792d406e550a8a58600ad225ce7c5a2911bdfc52aa3d21"},
	{50, 1, 1347681, 782953, "c2700b9a3d23b518e8b8e17485e4010dc0e5688fb6cb2b4529f848534e9f4eda"},
	{0, 32, 6, 6, "f03c505957b59072d4d0a15035bd65822ef9f0e8772538985ef5f3d0ab94cf71"},
}

// goldenDigest hashes, per query, the best-match answer with its stats
// followed by the all-matches answer with its stats.
func goldenDigest(t *testing.T, queries [][]uint32,
	best func(q []uint32) (int, float64, bool, QueryStats, error),
	all func(q []uint32) ([]Match, QueryStats, error)) string {
	t.Helper()
	h := sha256.New()
	u64 := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, q := range queries {
		id, sim, ok, st, err := best(q)
		if err != nil {
			t.Fatal(err)
		}
		found := uint64(0)
		if ok {
			found = 1
		}
		u64(uint64(int64(id)), math.Float64bits(sim), found, st.Candidates, st.Verified, st.Rejected)
		ms, ast, err := all(q)
		if err != nil {
			t.Fatal(err)
		}
		u64(uint64(len(ms)))
		for _, m := range ms {
			u64(uint64(int64(m.ID)), math.Float64bits(m.Sim))
		}
		u64(ast.Candidates, ast.Verified, ast.Rejected)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func indexDigest(t *testing.T, ix *Index, queries [][]uint32) string {
	return goldenDigest(t, queries,
		func(q []uint32) (int, float64, bool, QueryStats, error) {
			id, sim, ok, st := ix.QueryWithStats(q)
			return id, sim, ok, st, nil
		},
		func(q []uint32) ([]Match, QueryStats, error) {
			ms, st := ix.AppendAllWithStats(nil, q)
			return ms, st, nil
		})
}

// TestGoldenPointerWalk: the kernel reproduces the deleted pointer walk's
// answers and QueryStats after Build, after Encode→Decode, and through
// the mapped view.
func TestGoldenPointerWalk(t *testing.T) {
	for _, tc := range goldenShapes {
		t.Run(fmt.Sprintf("n=%d/leaf=%d", tc.n, tc.leafSize), func(t *testing.T) {
			sets, _ := buildWorkload(tc.n, 0.8, uint64(tc.n)+21)
			ix := Build(sets, 0.5, &Options{Seed: 22, LeafSize: tc.leafSize, Trees: 6})
			if ix.Nodes != tc.nodes || ix.Leaves != tc.leaves {
				t.Fatalf("built %d nodes / %d leaves, the pointer build had %d / %d", ix.Nodes, ix.Leaves, tc.nodes, tc.leaves)
			}
			queries := sets
			if len(queries) > 200 {
				queries = queries[:200]
			}
			queries = append(queries, []uint32{1 << 30, 1<<30 + 3}, nil)
			if got := indexDigest(t, ix, queries); got != tc.digest {
				t.Errorf("after Build: digest %s, pointer walk %s", got, tc.digest)
			}

			var buf bytes.Buffer
			if err := ix.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := indexDigest(t, dec, queries); got != tc.digest {
				t.Errorf("after Encode→Decode: digest %s, pointer walk %s", got, tc.digest)
			}
			var again bytes.Buffer
			if err := dec.Encode(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Error("re-encoding the decoded index changed the bytes")
			}

			m, err := openMappedBytes(t, buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenDigest(t, queries, m.QueryWithStats,
				func(q []uint32) ([]Match, QueryStats, error) { return m.AppendAllWithStats(nil, q) })
			if got != tc.digest {
				t.Errorf("through Mapped: digest %s, pointer walk %s", got, tc.digest)
			}
		})
	}
}

// TestBuildWorkersIdentical: the built trie is the same bytes for any
// worker count.
func TestBuildWorkersIdentical(t *testing.T) {
	sets, _ := buildWorkload(800, 0.8, 61)
	var want []byte
	for _, workers := range []int{0, 2, 5} {
		var buf bytes.Buffer
		if err := Build(sets, 0.5, &Options{Seed: 62, Trees: 5, Workers: workers}).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d encodes differently from workers=0", workers)
		}
	}
}

// TestQueryZeroAllocs: steady-state Query and AppendAll (with a reused
// destination) allocate nothing.
func TestQueryZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	sets, _ := buildWorkload(2000, 0.8, 41)
	ix := Build(sets, 0.5, &Options{Seed: 42})
	var dst []Match
	// Warm the scratch pool and the destination buffer to steady state.
	for i := 0; i < 50; i++ {
		ix.Query(sets[i])
		dst = ix.AppendAll(dst[:0], sets[i])
	}
	qi := 0
	if n := testing.AllocsPerRun(200, func() {
		ix.Query(sets[qi%1000])
		qi++
	}); n != 0 {
		t.Errorf("Query allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		dst = ix.AppendAll(dst[:0], sets[qi%1000])
		qi++
	}); n != 0 {
		t.Errorf("AppendAll allocates %v/op, want 0", n)
	}
}

func BenchmarkQueryAll(b *testing.B) {
	sets, _ := buildWorkload(5000, 0.8, 15)
	ix := Build(sets, 0.6, &Options{Seed: 16})
	var dst []Match
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.AppendAll(dst[:0], sets[i%len(sets)])
	}
}
