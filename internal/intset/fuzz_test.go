package intset_test

import (
	"testing"

	"repro/internal/intset"
	"repro/internal/verify"
)

// FuzzIntersect cross-checks the intersection paths against a map-based
// reference on arbitrary byte-derived sets, and every exact threshold
// decision against the similarity it decides on, at a fuzzed threshold
// num/den: a ratio of small integers lands exactly on the boundary of a
// pair often, and den = 0 gives +Inf and NaN.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint16(1), uint16(2))
	f.Add([]byte{}, []byte{0}, uint16(0), uint16(0))
	f.Add([]byte{255, 255, 1}, []byte{1}, uint16(1), uint16(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(4), uint16(5))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, num, den uint16) {
		a, b := fromBytes(rawA), fromBytes(rawB)
		want := intset.RefIntersectSize(a, b)
		if got := intset.IntersectSize(a, b); got != want {
			t.Fatalf("IntersectSize = %d, want %d (a=%v b=%v)", got, want, a, b)
		}
		// The early-exit merge decides every bound and counts exactly when
		// it passes.
		for req := 0; req <= want+2; req++ {
			if n, ok := intset.IntersectSizeAtLeast(a, b, req); ok != (want >= req) || (ok && n != want) {
				t.Fatalf("IntersectSizeAtLeast(req=%d) = %d, %v, |∩|=%d", req, n, ok, want)
			}
		}
		// Jaccard stays in range and is symmetric.
		j1, j2 := intset.Jaccard(a, b), intset.Jaccard(b, a)
		if j1 != j2 || j1 < 0 || j1 > 1 {
			t.Fatalf("Jaccard broken: %v vs %v", j1, j2)
		}

		th := float64(num) / float64(den)
		for _, m := range []struct {
			name string
			sim  func(a, b []uint32) float64
			at   func(a, b []uint32, t float64) (float64, bool)
		}{
			{"Jaccard", intset.Jaccard, intset.JaccardAtLeast},
			{"Containment", intset.Containment, intset.ContainmentAtLeast},
		} {
			s := m.sim(a, b)
			if got, ok := m.at(a, b, th); ok != (s >= th) || (ok && got != s) {
				t.Fatalf("%sAtLeast(%v, %v, %v) = %v, %v; %s = %v", m.name, a, b, th, got, ok, m.name, s)
			}
		}
		v := verify.NewVerifier([][]uint32{a, b}, th)
		if got := v.Verify(0, 1); got != (j1 >= th) {
			t.Fatalf("Verify(%v, %v, %v) = %v; Jaccard = %v", a, b, th, got, j1)
		}
		// The size filter never drops a pair that reaches the threshold.
		if lo, hi := intset.SizeWindow(len(a), th); th > 0 && j1 >= th && (len(b) < lo || len(b) > hi) {
			t.Fatalf("SizeWindow(%d, %v) = [%d, %d] drops |b| = %d at J = %v", len(a), th, lo, hi, len(b), j1)
		}
	})
}

// fromBytes widens bytes (with position salt so duplicates spread) and
// normalizes into a set.
func fromBytes(raw []byte) []uint32 {
	s := make([]uint32, 0, len(raw))
	for i, v := range raw {
		s = append(s, uint32(v)+uint32(i%7)*64)
	}
	return intset.Normalize(s)
}
