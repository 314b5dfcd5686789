// Package tabhash implements tabulation (Zobrist) hashing and the small
// deterministic PRNG used to seed it.
//
// The CPSJoin paper uses Zobrist hashing from 32 bits to 64 bits with 8-bit
// characters as the hash family underlying MinHash. Simple tabulation
// hashing has been shown to have strong minwise-hashing properties
// (Pătraşcu & Thorup, JACM 2012) and is very fast in practice: a hash
// evaluation is four table lookups and three XORs.
//
// MinHash signing and sketching hash every key of a set with many
// functions and keep each function's minimum. Family32 holds those
// functions transposed and owns that fold: ArgMins keeps the keys that
// reach the minima. Low32 holds the low 32 bits of the same kind of family
// at half the size, and FoldBits keeps the low bit of each minimum, the
// 1-bit minwise sketch. Where the CPU and the OS have AVX-512F and
// AVX-512VL, the probe at start-up picks amd64 kernels (fold_amd64.s) that
// fold a whole set with the running minima in vector registers; elsewhere,
// and for functions past the last whole 128-function block of ArgMins, the
// fold runs its Go loops. Both give the same minima and keys bit for bit.
package tabhash

// gamma is SplitMix64's state increment, the odd integer nearest 2^64/φ.
const gamma = 0x9e3779b97f4a7c15

// SplitMix64 is a tiny, high-quality PRNG used to fill tabulation tables and
// to derive per-repetition seeds. It is the seed-expansion generator of
// xoshiro/xoroshiro and passes BigCrush when used this way.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("tabhash: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// the modulo bias for n << 2^64 is negligible for our workloads.
	return int(s.Next() % uint64(n))
}

// Mix64 is a stateless avalanche mix of a 64-bit value (the splitmix64
// finalizer). Useful for deriving independent seeds from (seed, index).
func Mix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed derives a child seed from a parent seed and two stable
// identifiers (e.g. a signature position and a minhash value). The
// recursive algorithms use it to give every tree node randomness that
// depends only on its path from the root, never on sibling traversal
// order or scheduling — the discipline that makes parallel runs
// reproducible.
func DeriveSeed(seed, a, b uint64) uint64 {
	return Mix64(seed ^ (a+1)*0xbf58476d1ce4e5b9 ^ (b+1)*0x94d049bb133111eb)
}

// Table32 is a simple tabulation hash function from 32-bit keys to 64-bit
// values, using four 8-bit characters.
type Table32 struct {
	t0, t1, t2, t3 [256]uint64
}

// NewTable32 returns a tabulation hash function with tables filled from the
// given seed.
func NewTable32(seed uint64) *Table32 {
	rng := NewSplitMix64(seed)
	t := &Table32{}
	for i := 0; i < 256; i++ {
		t.t0[i] = rng.Next()
		t.t1[i] = rng.Next()
		t.t2[i] = rng.Next()
		t.t3[i] = rng.Next()
	}
	return t
}

// Hash returns the 64-bit tabulation hash of x.
func (t *Table32) Hash(x uint32) uint64 {
	return t.t0[byte(x)] ^ t.t1[byte(x>>8)] ^ t.t2[byte(x>>16)] ^ t.t3[byte(x>>24)]
}

// Table64 is a simple tabulation hash function from 64-bit keys to 64-bit
// values, using eight 8-bit characters. MinHash LSH hashes the signature
// values at its sampled positions into bucket keys with it.
type Table64 struct {
	t [8][256]uint64
}

// NewTable64 returns a tabulation hash function with tables filled from the
// given seed.
func NewTable64(seed uint64) *Table64 {
	rng := NewSplitMix64(seed)
	t := &Table64{}
	for c := 0; c < 8; c++ {
		for i := 0; i < 256; i++ {
			t.t[c][i] = rng.Next()
		}
	}
	return t
}

// Hash returns the 64-bit tabulation hash of x.
func (t *Table64) Hash(x uint64) uint64 {
	return t.t[0][byte(x)] ^
		t.t[1][byte(x>>8)] ^
		t.t[2][byte(x>>16)] ^
		t.t[3][byte(x>>24)] ^
		t.t[4][byte(x>>32)] ^
		t.t[5][byte(x>>40)] ^
		t.t[6][byte(x>>48)] ^
		t.t[7][byte(x>>56)]
}

// Family32 is n simple tabulation functions from 32-bit keys to 64-bit
// values, stored transposed. Function i is the one NewTable32(Mix64(base +
// i·stride)) returns, each entry the same draw of the same stream; only
// where the entries are stored differs. For each key byte position c and
// byte value v, one contiguous row holds entry v of table c of every
// function, in function order (4 × 256 rows of n values). Hashing a key
// with all n functions is then four row reads and their XOR, instead of
// 4·n random table lines: what token-major MinHash signing needs, and what
// ArgMins (fold.go) does.
type Family32 struct {
	n    int
	rows []uint64 // the row of (c, v) is rows[(c*256+v)*n:][:n]
}

// NewFamily32 returns the n functions seeded Mix64(base + i·stride) for i
// in [0, n). It panics if n <= 0.
func NewFamily32(n int, base, stride uint64) *Family32 {
	seeds := seedsOf(n, base, stride)
	f := &Family32{n: n, rows: make([]uint64, 4*256*n)}
	fill(f.rows, seeds)
	return f
}

// seedsOf returns Mix64(base + i·stride) for i in [0, n), the seeds of
// functions 0 to n-1 of a family, and panics if n <= 0.
func seedsOf(n int, base, stride uint64) []uint64 {
	if n <= 0 {
		panic("tabhash: a family of non-positive size")
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = Mix64(base + uint64(i)*stride)
	}
	return seeds
}

// fill writes every row of a family of len(seeds) functions to rows, each
// entry cut to T (a Low32 keeps the low half). NewTable32 draws entry v of
// table c as draw 4v+c of its stream, and draw k (from 0) of a SplitMix64
// seeded s is Mix64(s + k·gamma). So each row can be computed where it
// lies, in memory order.
func fill[T uint32 | uint64](rows []T, seeds []uint64) {
	n := len(seeds)
	for c := 0; c < 4; c++ {
		for v := 0; v < 256; v++ {
			step := uint64(4*v+c) * gamma
			row := rows[(c*256+v)*n:][:n]
			for i, s := range seeds {
				row[i] = T(Mix64(s + step))
			}
		}
	}
}

// Row returns the row of key byte c (0 to 3) of x: entry i is function
// i's table c at that byte, so the XOR of the four rows of x is every
// function's hash of x, in function order.
func (f *Family32) Row(c int, x uint32) []uint64 {
	return f.rows[(c<<8|int(byte(x>>(8*c))))*f.n:][:f.n]
}

// Low32 is n simple tabulation functions from 32-bit keys to 32-bit values,
// stored transposed as Family32 stores its functions: function i is the low
// 32 bits of function i of NewFamily32(n, base, stride), entry for entry,
// at half the size (2 MB at n = 512). FoldBits (fold.go) folds a set
// through it into a 1-bit minwise sketch.
type Low32 struct {
	n int
	// rows is as Family32's, followed by lowPad entries that the AVX-512
	// fold may read past the last row and never uses.
	rows []uint32
}

// lowPad is how far past its functions a pass of the Low32 fold may read:
// the kernel folds a whole block of 256 functions, of which fewer may be
// left.
const lowPad = 256

// NewLow32 returns the low halves of the n functions seeded Mix64(base +
// i·stride) for i in [0, n). It panics unless n is a positive multiple of
// 64, a whole number of sketch words.
func NewLow32(n int, base, stride uint64) *Low32 {
	if n%64 != 0 {
		panic("tabhash: NewLow32 with n not a multiple of 64")
	}
	seeds := seedsOf(n, base, stride)
	f := &Low32{n: n, rows: make([]uint32, 4*256*n+lowPad)}
	fill(f.rows, seeds)
	return f
}
