package main

import (
	"sort"
	"testing"
)

func workloadCollection(workload string, seed uint64) collection {
	switch workload {
	case wJoinFlat, wJoinSkew:
		return generate(joinShape(workload), seed)
	case wServeRead:
		return generate(flatShape(serveReadSets, 0), seed)
	default:
		return generate(skewShape(serveMixedSets, 0), seed)
	}
}

// assertClean checks what cmd/ssjoin's cleaning pass would otherwise
// change: with sorted distinct tokens, at least two per set and no
// duplicate sets, line i of the written file stays set id i.
func assertClean(t *testing.T, c collection) {
	t.Helper()
	seen := make(map[string]bool, len(c.Sets))
	for id, s := range c.Sets {
		if len(s) < 2 {
			t.Fatalf("set %d has %d tokens", id, len(s))
		}
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			t.Fatalf("set %d is not sorted", id)
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				t.Fatalf("set %d repeats token %d", id, s[i])
			}
		}
		if k := setKey(s); seen[k] {
			t.Fatalf("set %d duplicates an earlier set", id)
		} else {
			seen[k] = true
		}
	}
	for _, p := range c.Planted {
		in := overlap(c.Sets[p.A], c.Sets[p.B])
		if union := len(c.Sets[p.A]) + len(c.Sets[p.B]) - in; p.A >= p.B || in != p.Inter || union != p.Union {
			t.Fatalf("planted pair %+v: sets share %d of %d", p, in, union)
		}
	}
}

// TestGeneratorsPinned pins every workload's input for seed 1: a generator
// that drifts would silently change what every later comparison measures.
var pinnedSeed1 = map[string]uint64{
	wJoinFlat:   0xcf1e4a8bd2ff801b,
	wJoinSkew:   0xaa02373746901abe,
	wServeRead:  0x465fb6e23527a68a,
	wServeMixed: 0x6e58af727789c4e8,
}

func TestGeneratorsPinned(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			c := workloadCollection(w, 1)
			assertClean(t, c)
			if got := c.checksum(); got != pinnedSeed1[w] {
				t.Errorf("seed 1: checksum %#x, pinned %#x", got, pinnedSeed1[w])
			}
		})
	}
}

// TestSecondSeedAccepted: another seed gives another, equally clean input
// with the planted pairs every threshold needs.
func TestSecondSeedAccepted(t *testing.T) {
	for _, w := range []string{wJoinFlat, wJoinSkew} {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			c := workloadCollection(w, 2)
			assertClean(t, c)
			if c.checksum() == pinnedSeed1[w] {
				t.Errorf("seeds 1 and 2 give the same collection")
			}
			for _, l := range sweepThresholds {
				if rc := plantedRecall(c.Planted, l, nil); rc.Exist < 200 {
					t.Errorf("seed 2: only %d planted pairs at λ=%.1f", rc.Exist, l)
				}
			}
		})
	}
}

func TestQueryPoolAndArrivalsPinned(t *testing.T) {
	sh := flatShape(2000, 0)
	c := generate(sh, 7)
	pool := queryPool(c, sh.tokens, 300, 0.52, 7)
	seen := map[string]bool{}
	var sum uint64
	for i, q := range pool {
		if k := setKey(q.Set); seen[k] {
			t.Fatalf("query %d repeats an earlier query", i)
		} else {
			seen[k] = true
		}
		in := overlap(q.Set, c.Sets[q.Target])
		if union := len(q.Set) + len(c.Sets[q.Target]) - in; in != q.Inter || union != q.Union {
			t.Fatalf("query %d: shares %d of %d with its target, recorded %d of %d", i, in, union, q.Inter, q.Union)
		}
		if float64(q.Inter)/float64(q.Union) < 0.52 {
			t.Fatalf("query %d: similarity to target below the pool's floor", i)
		}
		sum = sum*1099511628211 + uint64(q.Target) + uint64(len(q.Set))
	}
	if const_ := uint64(0xe1b432b4a823133); sum != const_ {
		t.Errorf("query pool fingerprint %#x, pinned %#x", sum, const_)
	}

	due := poissonArrivals(newRNG(7, "arrivals"), 150, 2)
	if !sort.Float64sAreSorted(due) || due[len(due)-1] >= 2 {
		t.Fatalf("arrivals not sorted inside the round")
	}
	// 300 expected; the count is part of the pinned schedule.
	if len(due) != 296 {
		t.Errorf("arrivals: %d in the round, pinned 296", len(due))
	}
	again := poissonArrivals(newRNG(7, "arrivals"), 150, 2)
	if len(again) != len(due) || again[0] != due[0] {
		t.Errorf("same seed gave another schedule")
	}
}
