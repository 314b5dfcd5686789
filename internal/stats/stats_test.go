package stats

import (
	"testing"

	"repro/internal/verify"
)

func pairs(ps ...[2]uint32) []verify.Pair {
	out := make([]verify.Pair, len(ps))
	for i, p := range ps {
		out[i] = verify.MakePair(p[0], p[1])
	}
	return out
}

func TestRecall(t *testing.T) {
	truth := pairs([2]uint32{1, 2}, [2]uint32{3, 4}, [2]uint32{5, 6})
	got := pairs([2]uint32{1, 2}, [2]uint32{5, 6}, [2]uint32{7, 8})
	if r := Recall(got, truth); r != 2.0/3.0 {
		t.Errorf("Recall = %v, want 2/3", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Errorf("Recall(nil, nil) = %v, want 1", r)
	}
	if r := Recall(nil, truth); r != 0 {
		t.Errorf("Recall(nil, truth) = %v, want 0", r)
	}
	if r := Recall(truth, truth); r != 1 {
		t.Errorf("Recall(x, x) = %v, want 1", r)
	}
}

func TestPrecision(t *testing.T) {
	truth := pairs([2]uint32{1, 2}, [2]uint32{3, 4})
	got := pairs([2]uint32{1, 2}, [2]uint32{9, 10})
	if p := Precision(got, truth); p != 0.5 {
		t.Errorf("Precision = %v, want 0.5", p)
	}
	if p := Precision(nil, truth); p != 1 {
		t.Errorf("Precision(empty) = %v, want 1", p)
	}
}

func TestEqualPairSets(t *testing.T) {
	a := pairs([2]uint32{1, 2}, [2]uint32{3, 4})
	b := pairs([2]uint32{3, 4}, [2]uint32{1, 2})
	if !EqualPairSets(a, b) {
		t.Error("order should not matter")
	}
	c := pairs([2]uint32{1, 2}, [2]uint32{3, 5})
	if EqualPairSets(a, c) {
		t.Error("different sets compared equal")
	}
	if EqualPairSets(a, a[:1]) {
		t.Error("different lengths compared equal")
	}
}

func TestMissing(t *testing.T) {
	truth := pairs([2]uint32{1, 2}, [2]uint32{3, 4}, [2]uint32{5, 6})
	got := pairs([2]uint32{3, 4})
	m := Missing(got, truth)
	if len(m) != 2 {
		t.Fatalf("Missing = %v", m)
	}
}
