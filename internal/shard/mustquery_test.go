package shard

import (
	"testing"

	"repro/internal/cpindex"
)

// Test-side query helpers: the one-line forms of the query pipeline with a
// serving error failing the test, so call sites keep a compact shape.

func mustQuery(t testing.TB, x *Index, q []uint32) (int, float64, bool) {
	t.Helper()
	id, sim, ok, err := x.QueryErr(q)
	if err != nil {
		t.Fatalf("QueryErr: %v", err)
	}
	return id, sim, ok
}

func mustQueryAll(t testing.TB, x *Index, q []uint32) []cpindex.Match {
	t.Helper()
	ms, err := x.QueryAllErr(q)
	if err != nil {
		t.Fatalf("QueryAllErr: %v", err)
	}
	return ms
}

func mustQueryBatch(t testing.TB, x *Index, qs [][]uint32) [][]cpindex.Match {
	t.Helper()
	out, err := x.QueryBatchErr(qs)
	if err != nil {
		t.Fatalf("QueryBatchErr: %v", err)
	}
	return out
}
