package shard

import "testing"

// Test-side query helpers: the one-line forms of Search with an error
// failing the test, so call sites keep a compact shape.

func mustQuery(t testing.TB, x *Index, q []uint32) (int, float64, bool) {
	t.Helper()
	res, err := x.Search(Request{Set: q}, nil)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return res.Best.ID, res.Best.Sim, res.Found
}

// mustContain is the containment form: every indexed set y with
// C(q, y) >= th, scored exactly and sorted by global id.
func mustContain(t testing.TB, x *Index, q []uint32, th float64) []Match {
	t.Helper()
	res, err := x.Search(Request{Set: q, Mode: ModeContainment, Threshold: th}, nil)
	if err != nil {
		t.Fatalf("containment Search: %v", err)
	}
	return res.Matches
}
