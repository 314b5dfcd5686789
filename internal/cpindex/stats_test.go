package cpindex

import "testing"

// TestQueryWithStats pins the stats contract: the counted answer is the
// normal answer, every candidate is verified exactly once, and rejections
// never exceed verifications.
func TestQueryWithStats(t *testing.T) {
	sets, _ := buildWorkload(500, 0.8, 41)
	ix := Build(sets, 0.5, &Options{Seed: 43, Trees: 4, LeafSize: 8})
	for qi := 0; qi < 100; qi++ {
		q := sets[qi]
		wantID, wantSim, wantOK := ix.Query(q)
		id, sim, ok, st := ix.QueryWithStats(q)
		if id != wantID || sim != wantSim || ok != wantOK {
			t.Fatalf("query %d: QueryWithStats answer (%d,%v,%v) != Query (%d,%v,%v)",
				qi, id, sim, ok, wantID, wantSim, wantOK)
		}
		if ok && st.Candidates == 0 {
			t.Fatalf("query %d: found a match with zero candidates: %+v", qi, st)
		}
		if st.Verified != st.Candidates {
			t.Fatalf("query %d: %d candidates but %d verifications", qi, st.Candidates, st.Verified)
		}
		if st.Rejected > st.Verified {
			t.Fatalf("query %d: %d rejections out of %d verifications", qi, st.Rejected, st.Verified)
		}

		want := ix.QueryAll(q)
		got, ast := ix.AppendAllWithStats(nil, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: AppendAllWithStats %d matches, QueryAll %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d match %d: %+v != %+v", qi, i, got[i], want[i])
			}
		}
		// QueryAll scans every tree, so accepted + rejected must
		// account for every verification.
		if ast.Verified != ast.Candidates || ast.Rejected != ast.Verified-uint64(len(got)) {
			t.Fatalf("query %d: inconsistent all-stats %+v with %d matches", qi, ast, len(got))
		}
	}
}

// TestSetCountersFlush checks the cross-query sink: attached counters
// accumulate exactly the per-query stats, and detaching stops the flow.
func TestSetCountersFlush(t *testing.T) {
	sets, _ := buildWorkload(400, 0.8, 47)
	ix := Build(sets, 0.5, &Options{Seed: 53, Trees: 3, LeafSize: 8})
	var c QueryCounters
	ix.SetCounters(&c)

	var sum QueryStats
	for qi := 0; qi < 50; qi++ {
		_, _, _, st := ix.QueryWithStats(sets[qi])
		sum.add(st)
		_, ast := ix.AppendAllWithStats(nil, sets[qi])
		sum.add(ast)
	}
	if c.Candidates.Load() != sum.Candidates || c.Verified.Load() != sum.Verified || c.Rejected.Load() != sum.Rejected {
		t.Fatalf("counters (%d,%d,%d) != summed stats (%d,%d,%d)",
			c.Candidates.Load(), c.Verified.Load(), c.Rejected.Load(),
			sum.Candidates, sum.Verified, sum.Rejected)
	}
	// The plain entry points flush into the same counters.
	before := c.Candidates.Load()
	ix.Query(sets[0])
	ix.QueryAll(sets[0])
	if c.Candidates.Load() <= before {
		t.Error("Query/QueryAll did not flush into the attached counters")
	}

	// Detach: counters freeze.
	ix.SetCounters(nil)
	frozen := c.Candidates.Load()
	ix.Query(sets[1])
	if c.Candidates.Load() != frozen {
		t.Error("detached counters still advanced")
	}
}
