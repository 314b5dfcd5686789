package intset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refIntersectSize is the obvious map-based reference implementation.
func refIntersectSize(a, b []uint32) int {
	m := make(map[uint32]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	n := 0
	for _, x := range b {
		if m[x] {
			n++
		}
	}
	return n
}

func randomSet(rng *rand.Rand, maxLen, universe int) []uint32 {
	n := rng.Intn(maxLen + 1)
	s := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, uint32(rng.Intn(universe)))
	}
	return Normalize(s)
}

func TestIsSet(t *testing.T) {
	cases := []struct {
		in   []uint32
		want bool
	}{
		{nil, true},
		{[]uint32{1}, true},
		{[]uint32{1, 2, 3}, true},
		{[]uint32{1, 1}, false},
		{[]uint32{2, 1}, false},
		{[]uint32{0, 5, 5, 9}, false},
	}
	for _, c := range cases {
		if got := IsSet(c.in); got != c.want {
			t.Errorf("IsSet(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]uint32{5, 1, 5, 3, 1})
	want := []uint32{1, 3, 5}
	if !Equal(got, want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
	if !IsSet(got) {
		t.Errorf("Normalize output not a set: %v", got)
	}
	// Already-normalized input is returned unchanged.
	in := []uint32{2, 4, 6}
	if out := Normalize(in); &out[0] != &in[0] || !Equal(out, in) {
		t.Errorf("Normalize of sorted input changed it: %v", out)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		s := Normalize(append([]uint32(nil), raw...))
		if !IsSet(s) {
			return false
		}
		// Every input element is present, and nothing else.
		for _, x := range raw {
			if !Contains(s, x) {
				return false
			}
		}
		for _, x := range s {
			found := false
			for _, y := range raw {
				if x == y {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	s := []uint32{2, 5, 9, 100, 4000}
	for _, x := range s {
		if !Contains(s, x) {
			t.Errorf("Contains(%v, %d) = false, want true", s, x)
		}
	}
	for _, x := range []uint32{0, 1, 3, 10, 99, 101, 5000} {
		if Contains(s, x) {
			t.Errorf("Contains(%v, %d) = true, want false", s, x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil, 1) = true")
	}
}

func TestIntersectSizeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := randomSet(rng, 60, 120)
		b := randomSet(rng, 60, 120)
		want := refIntersectSize(a, b)
		if got := IntersectSize(a, b); got != want {
			t.Fatalf("IntersectSize(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := IntersectSize(b, a); got != want {
			t.Fatalf("IntersectSize not symmetric on %v, %v", a, b)
		}
	}
}

func TestGallopIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		small := randomSet(rng, 5, 100000)
		big := randomSet(rng, 4000, 100000)
		want := refIntersectSize(small, big)
		if got := IntersectSize(small, big); got != want {
			t.Fatalf("galloping IntersectSize = %d, want %d", got, want)
		}
	}
}

func TestIntersectSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := randomSet(rng, 40, 60)
		b := randomSet(rng, 40, 60)
		exact := refIntersectSize(a, b)
		for req := 0; req <= 12; req++ {
			_, ok := IntersectSizeAtLeast(a, b, req)
			if want := exact >= req; ok != want {
				t.Fatalf("IntersectSizeAtLeast(|∩|=%d, req=%d) = %v, want %v",
					exact, req, ok, want)
			}
		}
	}
}

func TestIntersectBoundNeverExceedsMin(t *testing.T) {
	f := func(rawA, rawB []uint32) bool {
		a := Normalize(append([]uint32(nil), rawA...))
		b := Normalize(append([]uint32(nil), rawB...))
		in := IntersectSize(a, b)
		return in <= len(a) && in <= len(b) && in >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 1},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 0.5},
		{[]uint32{1, 2}, []uint32{3, 4}, 0},
		{[]uint32{1, 2, 3}, nil, 0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		a := randomSet(rng, 30, 50)
		b := randomSet(rng, 30, 50)
		ab, ba := Jaccard(a, b), Jaccard(b, a)
		if ab != ba {
			t.Fatalf("Jaccard not symmetric: %v vs %v", ab, ba)
		}
		if ab < 0 || ab > 1 {
			t.Fatalf("Jaccard out of range: %v", ab)
		}
		if len(a) > 0 && Jaccard(a, a) != 1 {
			t.Fatalf("Jaccard(a, a) != 1 for %v", a)
		}
	}
}

// TestThresholdRule checks the rule's integer bounds exhaustively against
// the predicate they come from, at every threshold from 0.01 to 0.99 in
// steps of 0.01 plus 1/3 and 2/3, and every size up to 512. The predicate
// is monotone in the count, so a bound c is exact when c passes and c−1
// does not (or, for "none", when the largest count does not pass).
func TestThresholdRule(t *testing.T) {
	const maxSize = 512
	lambdas := []float64{1.0 / 3, 2.0 / 3}
	for i := 1; i <= 99; i++ {
		lambdas = append(lambdas, float64(i)/100)
	}
	for _, l := range lambdas {
		for d := 0; d <= maxSize; d++ {
			c := MinShare(d, l)
			if c < 0 || c > d+1 || (c <= d && !reaches(c, d, l)) || (c > 0 && reaches(c-1, d, l)) {
				t.Fatalf("MinShare(%d, %v) = %d", d, l, c)
			}
			lo, hi := SizeWindow(d, l)
			if lo != c || hi < d-1 || (hi >= d && !reaches(d, hi, l)) || reaches(d, hi+1, l) {
				t.Fatalf("SizeWindow(%d, %v) = [%d, %d]", d, l, lo, hi)
			}
			for lb := d; lb <= maxSize; lb++ {
				n := d + lb
				c := MinOverlap(d, lb, l)
				if c != MinOverlap(lb, d, l) {
					t.Fatalf("MinOverlap(%d, %d, %v) is not symmetric", d, lb, l)
				}
				if c < 0 || c > d+1 || (c <= d && !reaches(c, n-c, l)) || (c > 0 && reaches(c-1, n-c+1, l)) {
					t.Fatalf("MinOverlap(%d, %d, %v) = %d", d, lb, l, c)
				}
			}
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal(nil, nil) || !Equal([]uint32{1}, []uint32{1}) {
		t.Error("Equal false negative")
	}
	if Equal([]uint32{1}, []uint32{2}) || Equal([]uint32{1}, []uint32{1, 2}) {
		t.Error("Equal false positive")
	}
}

func BenchmarkIntersectMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomSet(rng, 200, 10000)
	y := randomSet(rng, 200, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectSize(x, y)
	}
}

func BenchmarkIntersectGallop(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randomSet(rng, 8, 1000000)
	y := randomSet(rng, 20000, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectSize(x, y)
	}
}

func TestJaccardAtLeastAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	lambdas := []float64{0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.99}
	for i := 0; i < 3000; i++ {
		// Small universes force overlap, including exact-boundary pairs.
		a := randomSet(rng, 40, 30)
		b := randomSet(rng, 40, 30)
		want := Jaccard(a, b)
		for _, lambda := range lambdas {
			sim, ok := JaccardAtLeast(a, b, lambda)
			if ok != (want >= lambda) {
				t.Fatalf("JaccardAtLeast(%v, %v, %v) ok=%v, Jaccard=%v", a, b, lambda, ok, want)
			}
			if ok && sim != want {
				t.Fatalf("JaccardAtLeast(%v, %v, %v) sim=%v, Jaccard=%v", a, b, lambda, sim, want)
			}
		}
	}
	// Empty-set edges mirror Jaccard's ∅ conventions.
	if sim, ok := JaccardAtLeast(nil, nil, 0.5); ok || sim != 0 {
		t.Errorf("JaccardAtLeast(∅, ∅, 0.5) = %v, %v", sim, ok)
	}
	if _, ok := JaccardAtLeast(nil, []uint32{1}, 0.5); ok {
		t.Error("JaccardAtLeast(∅, {1}, 0.5) accepted")
	}
	if sim, ok := JaccardAtLeast([]uint32{1, 2}, []uint32{1, 2}, 1); !ok || sim != 1 {
		t.Errorf("JaccardAtLeast(identical, 1) = %v, %v", sim, ok)
	}
}
