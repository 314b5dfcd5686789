package tabhash

import (
	"encoding/binary"
	"slices"
	"testing"
)

// eachFoldPath runs f as subtest "go" on the fold's Go loops and as subtest
// "avx512" on the kernels picked at start-up, which it skips, with a
// message, where this CPU lacks AVX-512.
func eachFoldPath(t *testing.T, f func(t *testing.T)) {
	vector := WithGoFold(func() { t.Run("go", f) })
	if !vector {
		t.Run("go", f)
	}
	t.Run("avx512", func(t *testing.T) {
		if !vector {
			t.Skip("this CPU has no AVX-512: the fold runs its Go loops alone")
		}
		f(t)
	})
}

// TestFoldKeepsTheEarlierToken: a key whose hash equals the running minimum
// does not displace the key already there, as in the one-function-at-a-time
// loop's strict compare, in the kernel's 128-function block and in the tail
// after it alike. Distinct keys practically never tie under a 64-bit
// tabulation hash, so the rows are made up: key 1 hashes to 5 and key 2 to
// 4 + i%3 under function i, every other row is zero.
func TestFoldKeepsTheEarlierToken(t *testing.T) {
	eachFoldPath(t, func(t *testing.T) {
		const n = argBlock + 11
		f := &Family32{n: n, rows: make([]uint64, 4*256*n)}
		var want []uint32
		for i := range n {
			f.Row(0, 1)[i] = 5
			f.Row(0, 2)[i] = 4 + uint64(i%3)
			want = append(want, []uint32{2, 1, 1}[i%3])
		}
		arg := make([]uint32, n)
		f.ArgMins([]uint32{1, 2}, arg)
		if !slices.Equal(arg, want) {
			t.Errorf("arg-min keys %v, want %v (a tie keeps the earlier key)", arg, want)
		}
	})
}

// TestFoldPastTheFamilyPanics: arg-min keys for more functions than the
// family has, and a sketch of other than one word per 64 functions, are
// refused rather than folded with the next rows' entries.
func TestFoldPastTheFamilyPanics(t *testing.T) {
	f, low := NewFamily32(16, 1, 1), NewLow32(128, 1, 1)
	for name, fold := range map[string]func(){
		"ArgMins with 17 keys on 16 functions":   func() { f.ArgMins([]uint32{1}, make([]uint32, 17)) },
		"FoldBits with 3 words on 128 functions": func() { low.FoldBits([]uint32{1}, make([]uint64, 3)) },
		"FoldBits with 1 word on 128 functions":  func() { low.FoldBits([]uint32{1}, make([]uint64, 1)) },
		"ArgMins of an empty set":                func() { f.ArgMins(nil, make([]uint32, 1)) },
		"FoldBits of an empty set":               func() { low.FoldBits(nil, make([]uint64, 2)) },
		"NewLow32 with 100 functions":            func() { NewLow32(100, 1, 1) },
		"NewLow32 with no functions":             func() { NewLow32(0, 1, 1) },
		"NewFamily32 with a negative width":      func() { NewFamily32(-1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fold()
		}()
	}
}

// foldRef is the fold by definition, one function at a time: function i's
// minimum over keys under NewTable32(Mix64(base + i·stride)) and the first
// key to reach it, and the minimum of its low 32 bits.
func foldRef(n int, base, stride uint64, keys []uint32) (arg []uint32, low []uint32) {
	arg, low = make([]uint32, n), make([]uint32, n)
	for i := range n {
		tab := NewTable32(Mix64(base + uint64(i)*stride))
		best := tab.Hash(keys[0])
		arg[i], low[i] = keys[0], uint32(best)
		for _, x := range keys {
			h := tab.Hash(x)
			if h < best {
				best, arg[i] = h, x
			}
			low[i] = min(low[i], uint32(h))
		}
	}
	return arg, low
}

// sketchRef packs the low bit of each minimum of low, 64 to a word.
func sketchRef(low []uint32) []uint64 {
	out := make([]uint64, len(low)/64)
	for i, m := range low {
		out[i/64] |= uint64(m&1) << (i % 64)
	}
	return out
}

// FuzzFold requires ArgMins and FoldBits, on the path picked at start-up
// and on the Go loops, to give exactly the arg-min keys and the low bits of
// the minima of the one-function-at-a-time loop over NewTable32, on any
// keys, duplicates included: ArgMins at any width from 1 to 600 functions
// (so across the kernel's 128-function blocks and the tail after them),
// FoldBits at every width from 1 to 9 words (across its 256-function
// blocks, and the partial last block of 1 to 3 words). The seed corpus
// covers the widths 1, 7, 8, 9, 64, 128, 300 and 512.
func FuzzFold(f *testing.F) {
	rng := NewSplitMix64(0xf01d)
	for i, n := range []uint16{1, 7, 8, 9, 64, 128, 300, 512} {
		raw := make([]byte, 0, 4*40)
		for k := range 1 + 5*i {
			raw = binary.LittleEndian.AppendUint32(raw, uint32(rng.Next())>>(k%25))
		}
		f.Add(rng.Next(), n, raw)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, raw []byte) {
		width := 1 + int(n-1)%600
		words := 1 + int(n)%9
		stride := 1 + seed%2
		keys := []uint32{0}
		if len(raw) >= 4 {
			keys = make([]uint32, min(len(raw)/4, 256))
			for i := range keys {
				keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
		}
		fam, low := NewFamily32(width, seed, stride), NewLow32(64*words, seed, stride)
		folded := func() ([]uint32, []uint64) {
			arg, sk := make([]uint32, width), make([]uint64, words)
			fam.ArgMins(keys, arg)
			low.FoldBits(keys, sk)
			return arg, sk
		}
		arg, sk := folded()
		goArg, goSk := arg, sk
		WithGoFold(func() { goArg, goSk = folded() })
		wantArg, _ := foldRef(width, seed, stride, keys)
		_, wantLow := foldRef(64*words, seed, stride, keys)
		wantSk := sketchRef(wantLow)
		for i := range width {
			if arg[i] != wantArg[i] || goArg[i] != wantArg[i] {
				t.Fatalf("n=%d seed=%#x stride %d function %d: ArgMins key %d, Go loop %d; Table32 %d",
					width, seed, stride, i, arg[i], goArg[i], wantArg[i])
			}
		}
		for w := range words {
			if sk[w] != wantSk[w] || goSk[w] != wantSk[w] {
				t.Fatalf("%d words seed=%#x stride %d word %d: FoldBits %#x, Go loop %#x; Table32 %#x",
					words, seed, stride, w, sk[w], goSk[w], wantSk[w])
			}
		}
	})
}
