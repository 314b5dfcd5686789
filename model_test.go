package ssjoin

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/intset"
	"repro/internal/race"
)

// Model-based randomized harness for the sharded serving subsystem.
//
// A naive reference model — a map from global id to live set, queried by
// brute force — is driven through the same randomly generated op sequence
// (Add / Delete / Query / QueryBatch / Flush / Compact / Save / Load) as
// a real ShardedIndex, and every op's result is checked for byte-identical
// agreement, across partition schemes × shard counts × worker counts ×
// result cache on/off × storage tiers (hot, cold).
// Containment queries ride the same sequences: every returned match must
// be in the model's brute-force containment truth with the exact score
// (the candidate structure is approximate, so recall is gated in
// aggregate rather than per probe), and answers must survive save/load
// unchanged.
// This is what makes the compaction equivalence claim a theorem about the
// implementation rather than a hope: any reorganization the ops trigger —
// seals, compactions, snapshot round trips — must leave every answer
// exactly equal to the model's.
//
// The indexes run in exact mode (LeafSize above any shard size, so every
// tree is one exhaustively scanned leaf): results have recall 1.0 and the
// comparison is exact equality, not a statistical test. Approximate
// configurations are covered by the recall-style tests elsewhere; here
// the subject is the serving machinery (partitioning, id mapping, merge,
// tombstones, reclamation), which must be loss-free at any LeafSize.
//
// Every sequence derives from a fixed seed, so a failure replays
// deterministically; the failing config and op index are in the message.

// refModel is the reference implementation.
type refModel struct {
	lambda float64
	sets   map[int][]uint32
	next   int
}

func newRefModel(lambda float64, initial [][]uint32) *refModel {
	m := &refModel{lambda: lambda, sets: make(map[int][]uint32, len(initial))}
	for _, s := range initial {
		m.sets[m.next] = s
		m.next++
	}
	return m
}

func (m *refModel) add(sets [][]uint32) []int {
	ids := make([]int, len(sets))
	for i, s := range sets {
		ids[i] = m.next
		m.sets[m.next] = s
		m.next++
	}
	return ids
}

func (m *refModel) delete(id int) bool {
	if _, live := m.sets[id]; !live {
		return false
	}
	delete(m.sets, id)
	return true
}

// queryAll is the brute-force reference: every live id with J >= λ,
// sorted ascending.
func (m *refModel) queryAll(q []uint32) []Match {
	if len(q) == 0 {
		return nil
	}
	var out []Match
	for id := 0; id < m.next; id++ {
		s, live := m.sets[id]
		if !live {
			continue
		}
		if sim := intset.Jaccard(q, s); sim >= m.lambda {
			out = append(out, Match{ID: id, Sim: sim})
		}
	}
	return out
}

// queryContain is the brute-force containment reference: every live id
// whose set contains at least t of q, with the exact containment score,
// ascending id.
func (m *refModel) queryContain(q []uint32, t float64) []Match {
	if len(q) == 0 {
		return nil
	}
	var out []Match
	for id := 0; id < m.next; id++ {
		s, live := m.sets[id]
		if !live {
			continue
		}
		if sim, ok := intset.ContainmentAtLeast(q, s, t); ok {
			out = append(out, Match{ID: id, Sim: sim})
		}
	}
	return out
}

// query is the reference best match: maximum similarity, ties to the
// lowest id — the tie-break the sharded merge promises.
func (m *refModel) query(q []uint32) (int, float64, bool) {
	best, bestSim := -1, 0.0
	for id := 0; id < m.next; id++ {
		s, live := m.sets[id]
		if !live {
			continue
		}
		sim := intset.Jaccard(q, s)
		if sim < m.lambda {
			continue
		}
		if sim > bestSim || (sim == bestSim && (best < 0 || id < best)) {
			best, bestSim = id, sim
		}
	}
	return best, bestSim, best >= 0
}

// genSet produces a normalized (sorted, distinct, non-empty) random set
// over a small universe, so similar pairs are common and tombstone /
// tie-break paths actually fire.
func genSet(r *rand.Rand) []uint32 {
	size := 2 + r.Intn(9)
	seen := make(map[uint32]bool, size)
	for len(seen) < size {
		seen[uint32(1+r.Intn(120))] = true
	}
	out := make([]uint32, 0, size)
	for tok := range seen {
		out = append(out, tok)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// genQuery mixes exact copies of live sets, mutated copies, fresh random
// sets and the occasional empty query.
func genQuery(r *rand.Rand, m *refModel) []uint32 {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1, 2, 3, 4:
		if id := m.randomLiveID(r); id >= 0 {
			return m.sets[id]
		}
		return genSet(r)
	case 5, 6:
		id := m.randomLiveID(r)
		if id < 0 {
			return genSet(r)
		}
		src := m.sets[id]
		out := append([]uint32(nil), src...)
		if len(out) > 2 && r.Intn(2) == 0 {
			out = append(out[:1], out[2:]...) // drop a token
		} else {
			out = intset.Normalize(append(out, uint32(1+r.Intn(120))))
		}
		return out
	default:
		return genSet(r)
	}
}

func (m *refModel) randomLiveID(r *rand.Rand) int {
	if len(m.sets) == 0 {
		return -1
	}
	// Deterministic scan from a random start: cheap and rand-stable.
	start := r.Intn(m.next)
	for id := start; id < m.next; id++ {
		if _, live := m.sets[id]; live {
			return id
		}
	}
	for id := 0; id < start; id++ {
		if _, live := m.sets[id]; live {
			return id
		}
	}
	return -1
}

func equalModelMatches(a []Match, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// modelOps is the op count per configuration; reduced under -short and
// under the race detector (the CI race job runs the full suite with the
// race build tag set, and the harness at full size would dominate it).
func modelOps() int {
	if testing.Short() || race.Enabled {
		return 150
	}
	return 500
}

// TestShardedIndexMatchesModel is the harness entry point.
//
// The cache dimension rides the grid: configurations alternate, two with
// the versioned result cache off and two with it on, so both face the
// same op sequences. The cache is deliberately small (it evicts
// constantly), and every save/load cycle also checks that re-applying
// the runtime configuration to a freshly loaded index changes no answer.
//
// The storage-tier dimension crosses the whole grid with the hot and the
// cold tier. A shard keeps the tier it was opened in, so a cold cell saves
// and reopens its index cold right after the build (every op then runs
// against a ring whose restored shards leave their tries and sets in their
// mapped files), and every save/load round trip reopens the snapshot in the
// configuration's tier; every answer must still be byte-identical to the
// model.
func TestShardedIndexMatchesModel(t *testing.T) {
	const lambda = 0.5
	const cacheEntries = 48
	type config struct {
		hash    bool
		shards  int
		workers int
		cache   bool
		tier    Tier
	}
	var base []config
	for _, hash := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			for _, workers := range []int{0, 4} {
				base = append(base, config{hash, shards, workers, len(base)%4 >= 2, TierHot})
			}
		}
	}
	var configs []config
	for _, tier := range []Tier{TierHot, TierCold} {
		for _, c := range base {
			c.tier = tier
			configs = append(configs, c)
		}
	}
	for ci, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("hash=%v/shards=%d/workers=%d/cache=%v/tier=%s",
			cfg.hash, cfg.shards, cfg.workers, cfg.cache, cfg.tier)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seed := int64(0xC0FFEE + 1000*ci)
			r := rand.New(rand.NewSource(seed))
			dir := filepath.Join(t.TempDir(), "snap")

			initial := make([][]uint32, 40)
			for i := range initial {
				initial[i] = genSet(r)
			}
			cacheSize := 0
			if cfg.cache {
				cacheSize = cacheEntries
			}
			model := newRefModel(lambda, initial)
			ix := NewShardedIndex(initial, lambda, &ShardedOptions{
				Shards:         cfg.shards,
				HashPartition:  cfg.hash,
				MergeThreshold: 16,
				Trees:          2,
				LeafSize:       1 << 20, // exact mode: every tree is one scanned leaf
				Seed:           uint64(seed),
				Workers:        cfg.workers,
				CacheSize:      cacheSize,
			})

			// The cache goes through the consolidated runtime configuration,
			// which Save persists and Load re-applies — so the explicit
			// re-apply after each round trip is also checking that Configure
			// is idempotent on an already-restored index.
			reconfigure := func(ix *ShardedIndex) {
				if err := ix.Configure(RuntimeOptions{CacheSize: cacheSize}); err != nil {
					t.Fatalf("Configure: %v", err)
				}
			}
			reconfigure(ix)
			reload := func() (*ShardedIndex, error) {
				if err := ix.Save(dir); err != nil {
					return nil, err
				}
				return LoadShardedIndexWithOptions(dir, LoadOptions{Workers: cfg.workers, Tiering: cfg.tier})
			}
			if cfg.tier == TierCold {
				var err error
				if ix, err = reload(); err != nil {
					t.Fatalf("cold restore of the build: %v", err)
				}
				if st := ix.Stats(); st.HotShards != 0 || st.ColdShards == 0 {
					t.Fatalf("cold restore of the build: %d hot / %d cold shards", st.HotShards, st.ColdShards)
				}
			}

			fail := func(op int, format string, args ...any) {
				t.Helper()
				t.Fatalf("seed=%d op=%d: %s", seed, op, fmt.Sprintf(format, args...))
			}
			checkQuery := func(op int, q []uint32) {
				t.Helper()
				wantID, wantSim, wantOK := model.query(q)
				best, err := ix.Search(Query{Set: q})
				if err != nil {
					fail(op, "Search(%v): %v", q, err)
				}
				if best.Best.ID != wantID || best.Best.Sim != wantSim || best.Found != wantOK {
					fail(op, "Search(%v) = %+v, model says (%d, %v, %v)",
						q, best, wantID, wantSim, wantOK)
				}
				all, err := ix.Search(Query{Set: q, All: true})
				if err != nil {
					fail(op, "Search(%v, all): %v", q, err)
				}
				if want := model.queryAll(q); !equalModelMatches(all.Matches, want) {
					fail(op, "Search(%v, all) = %v, model says %v", q, all.Matches, want)
				}
			}

			// The containment dimension: the index's containment answers are
			// checked for exactness against the brute-force model — every
			// returned match must be in the model's truth with the exact
			// containment score, in ascending id order. The candidate
			// structure is approximate (recall is a target, not 1.0), so
			// misses are tallied and gated in aggregate at the end instead
			// of per probe.
			var containTruth, containHits int
			contain := func(op int, q []uint32, th float64) []Match {
				t.Helper()
				res, err := ix.Search(Query{Set: q, Mode: ModeContainment, Threshold: th})
				if err != nil {
					fail(op, "containment Search(%v, t=%v): %v", q, th, err)
				}
				return res.Matches
			}
			checkContain := func(op int, q []uint32) {
				t.Helper()
				for _, th := range []float64{0.5, 1.0} {
					want := model.queryContain(q, th)
					inTruth := make(map[int]float64, len(want))
					for _, m := range want {
						inTruth[m.ID] = m.Sim
					}
					got := contain(op, q, th)
					for i, m := range got {
						if i > 0 && got[i-1].ID >= m.ID {
							fail(op, "containment matches not ascending: %v", got)
						}
						if sim, in := inTruth[m.ID]; !in || sim != m.Sim {
							fail(op, "containment match %+v at t=%v not in model truth %v", m, th, want)
						}
					}
					containTruth += len(want)
					containHits += len(got)
				}
			}

			ops := modelOps()
			for op := 0; op < ops; op++ {
				switch k := r.Intn(100); {
				case k < 35: // Add
					batch := make([][]uint32, 1+r.Intn(8))
					for i := range batch {
						batch[i] = genSet(r)
					}
					wantIDs := model.add(batch)
					ids := ix.Add(batch)
					for i := range ids {
						if ids[i] != wantIDs[i] {
							fail(op, "Add assigned ids %v, model says %v", ids, wantIDs)
						}
					}
				case k < 50: // Delete (live, dead, reclaimed and unknown ids alike)
					for n := 1 + r.Intn(4); n > 0; n-- {
						id := r.Intn(model.next + 2)
						want := model.delete(id)
						if got := ix.Delete(id); got != want {
							fail(op, "Delete(%d) = %v, model says %v", id, got, want)
						}
					}
				case k < 70: // Query + QueryAll + containment
					q := genQuery(r, model)
					checkQuery(op, q)
					checkContain(op, q)
				case k < 80: // QueryBatch
					qs := make([][]uint32, 4+r.Intn(5))
					for i := range qs {
						qs[i] = genQuery(r, model)
					}
					got := ix.QueryBatch(qs)
					for i, q := range qs {
						if want := model.queryAll(q); !equalModelMatches(got[i], want) {
							fail(op, "QueryBatch[%d](%v) = %v, model says %v", i, q, got[i], want)
						}
					}
				case k < 85: // Flush
					ix.Flush()
				case k < 93: // Compact
					res := ix.Compact()
					if res.Merged > 0 {
						st := ix.Stats()
						if st.Compactions < 1 {
							fail(op, "Compact reported %+v but stats say %+v", res, st)
						}
					}
				default: // Save + Load round trip, continuing on the loaded index
					// Containment answers must survive the round trip
					// byte-identically: the snapshot carries the signatures,
					// and the signer's seed is global, so no rebuild may
					// change a single match.
					containProbe := genQuery(r, model)
					preContain := contain(op, containProbe, 0.5)
					loaded, err := reload()
					if err != nil {
						fail(op, "Save + Load: %v", err)
					}
					ix = loaded
					reconfigure(ix)
					postContain := contain(op, containProbe, 0.5)
					if !equalModelMatches(preContain, postContain) {
						fail(op, "containment answers changed across save/load: %v -> %v",
							preContain, postContain)
					}
				}

				if got, want := ix.Len(), len(model.sets); got != want {
					fail(op, "Len() = %d, model says %d", got, want)
				}
				if op%20 == 19 {
					for p := 0; p < 5; p++ {
						checkQuery(op, genQuery(r, model))
					}
					checkContain(op, genQuery(r, model))
				}
			}

			// Final exhaustive pass: flush, compact, round-trip, and check
			// every live set self-queries correctly plus a probe batch.
			ix.Flush()
			ix.Compact()
			loaded, err := reload()
			if err != nil {
				t.Fatalf("final Save + Load: %v", err)
			}
			ix = loaded
			reconfigure(ix)
			var finals [][]uint32
			for id := 0; id < model.next; id++ {
				if s, live := model.sets[id]; live {
					finals = append(finals, s)
				}
			}
			for p := 0; p < 30; p++ {
				finals = append(finals, genQuery(r, model))
			}
			got := ix.QueryBatch(finals)
			for i, q := range finals {
				if want := model.queryAll(q); !equalModelMatches(got[i], want) {
					t.Fatalf("seed=%d final: QueryBatch[%d](%v) = %v, model says %v", seed, i, q, got[i], want)
				}
			}
			// Aggregate containment recall over the whole run: the candidate
			// structure is approximate by design, but a broken one (wrong
			// seed plumbing, dropped shards) collapses well below this.
			if containTruth > 0 {
				if recall := float64(containHits) / float64(containTruth); recall < 0.9 {
					t.Fatalf("seed=%d: aggregate containment recall %.3f (%d/%d hits) below 0.9",
						seed, recall, containHits, containTruth)
				}
			}
		})
	}
}
