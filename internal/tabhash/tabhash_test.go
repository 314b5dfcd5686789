package tabhash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/100", same)
	}
}

// Known-answer test pinned to the reference splitmix64 outputs for seed 0
// (Vigna's reference C implementation).
func TestSplitMix64KnownAnswers(t *testing.T) {
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("splitmix64(seed 0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSplitMix64(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewSplitMix64(10)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewSplitMix64(11)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestTable32Deterministic(t *testing.T) {
	a := NewTable32(5)
	b := NewTable32(5)
	f := func(x uint32) bool { return a.Hash(x) == b.Hash(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable32Uniformity(t *testing.T) {
	// Each output bit of the tabulation hash should be ~balanced over a
	// range of inputs.
	h := NewTable32(6)
	const n = 1 << 14
	ones := make([]int, 64)
	for x := uint32(0); x < n; x++ {
		v := h.Hash(x)
		for b := 0; b < 64; b++ {
			if v>>uint(b)&1 == 1 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / n
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("bit %d biased: fraction of ones %v", b, frac)
		}
	}
}

func TestTable32CollisionRate(t *testing.T) {
	h := NewTable32(7)
	seen := make(map[uint64]bool, 1<<16)
	collisions := 0
	for x := uint32(0); x < 1<<16; x++ {
		v := h.Hash(x)
		if seen[v] {
			collisions++
		}
		seen[v] = true
	}
	// 2^16 draws from 2^64 values: expected collisions ~ 2^32/2^65 ≈ 0.
	if collisions > 1 {
		t.Fatalf("too many 64-bit collisions: %d", collisions)
	}
}

func TestTable64Deterministic(t *testing.T) {
	a := NewTable64(5)
	b := NewTable64(5)
	f := func(x uint64) bool { return a.Hash(x) == b.Hash(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBitBalance: the low bit of a Low32 function, the bit a sketch keeps
// of each minimum, is balanced over keys, function by function.
func TestBitBalance(t *testing.T) {
	const n, keys = 64, 1 << 12
	f := NewLow32(n, 8, 2)
	for i := range n {
		ones := 0
		for x := uint32(0); x < keys; x++ {
			x := x * 0x9e3779b9
			ones += int((f.rows[int(byte(x))*n+i] ^ f.rows[(256+int(byte(x>>8)))*n+i] ^
				f.rows[(512+int(byte(x>>16)))*n+i] ^ f.rows[(768+int(x>>24))*n+i]) & 1)
		}
		if frac := float64(ones) / keys; frac < 0.45 || frac > 0.55 {
			t.Fatalf("function %d: low bit biased, fraction of ones %v", i, frac)
		}
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits on average.
	total := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		x := Mix64(uint64(i) * 0x2545f4914f6cdd1d)
		y := Mix64(x)
		flipped := Mix64(x ^ 1)
		diff := y ^ flipped
		total += popcount(diff)
	}
	mean := float64(total) / trials
	if mean < 28 || mean > 36 {
		t.Fatalf("avalanche mean bit flips = %v, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkTable32Hash(b *testing.B) {
	h := NewTable32(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint32(i))
	}
	_ = sink
}

func BenchmarkTable64Hash(b *testing.B) {
	h := NewTable64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint64(i))
	}
	_ = sink
}

// TestFamily32MatchesTable32: function i of a family is, entry for entry,
// NewTable32(Mix64(base + i·stride)), at the signer's and the sketch's
// seeding and at widths of one function up to more than 128, and function i
// of a Low32 is the low half of each entry.
func TestFamily32MatchesTable32(t *testing.T) {
	for _, tc := range []struct {
		n            int
		base, stride uint64
	}{{1, 3, 1}, {7, 42, 1}, {64, 42 ^ 0xa5a5a5a5a5a5a5a5, 2}, {130, 9, 1}} {
		f := NewFamily32(tc.n, tc.base, tc.stride)
		var low *Low32
		if tc.n%64 == 0 {
			low = NewLow32(tc.n, tc.base, tc.stride)
		}
		keys := []uint32{0, 1, 255, 256, 0xdeadbeef, 1 << 24, 0xffffffff}
		for i := 0; i < tc.n; i++ {
			tab := NewTable32(Mix64(tc.base + uint64(i)*tc.stride))
			for _, x := range keys {
				got := f.Row(0, x)[i] ^ f.Row(1, x)[i] ^ f.Row(2, x)[i] ^ f.Row(3, x)[i]
				if want := tab.Hash(x); got != want {
					t.Fatalf("n=%d base=%#x function %d key %#x: %#x, Table32 %#x", tc.n, tc.base, i, x, got, want)
				}
			}
			for c := 0; c < 4; c++ {
				for v := 0; v < 256; v++ {
					want := [4]*[256]uint64{&tab.t0, &tab.t1, &tab.t2, &tab.t3}[c][v]
					if got := f.Row(c, uint32(v)<<(8*c))[i]; got != want {
						t.Fatalf("n=%d function %d table %d entry %d: %#x, Table32 %#x", tc.n, i, c, v, got, want)
					}
					if low == nil {
						continue
					}
					if got := low.rows[(c*256+v)*tc.n+i]; got != uint32(want) {
						t.Fatalf("Low32 n=%d function %d table %d entry %d: %#x, Table32 %#x", tc.n, i, c, v, got, want)
					}
				}
			}
		}
	}
}
