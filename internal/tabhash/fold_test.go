package tabhash

import (
	"encoding/binary"
	"math"
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
// loop's strict compare, in the 8-function blocks and in the tail alike.
// Distinct keys practically never tie under a 64-bit tabulation hash, so
// the rows are made up: key 2's hash under function i is 4 + i%3, against
// minima of 5.
func TestFoldKeepsTheEarlierToken(t *testing.T) {
	eachFoldPath(t, func(t *testing.T) {
		const n = 11
		f := &Family32{n: n, rows: make([]uint64, 4*256*n)}
		for i := range n {
			f.Row(0, 2)[i] = 4 + uint64(i%3)
		}
		mins, arg := slices.Repeat([]uint64{5}, n), slices.Repeat([]uint32{1}, n)
		f.FoldArgMin(2, 0, mins, arg)
		if want := []uint32{2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1}; !slices.Equal(arg, want) {
			t.Errorf("arg-min keys %v, want %v (a tie keeps the earlier key)", arg, want)
		}
		want := []uint64{4, 5, 5, 4, 5, 5, 4, 5, 5, 4, 5}
		if !slices.Equal(mins, want) {
			t.Errorf("FoldArgMin minima %v, want %v", mins, want)
		}
		mins = slices.Repeat([]uint64{5}, n)
		f.FoldMin(2, mins)
		if !slices.Equal(mins, want) {
			t.Errorf("FoldMin minima %v, want %v", mins, want)
		}
	})
}

// TestFoldPastTheFamilyPanics: minima for more functions than the family
// has, from offset 0 or further in, are refused rather than folded with
// the next rows' entries.
func TestFoldPastTheFamilyPanics(t *testing.T) {
	f := NewFamily32(16, 1, 1)
	for _, tc := range []struct{ lo, n int }{{0, 17}, {9, 8}, {17, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FoldArgMin at offset %d with %d minima on 16 functions did not panic", tc.lo, tc.n)
				}
			}()
			f.FoldArgMin(1, tc.lo, make([]uint64, tc.n), make([]uint32, tc.n))
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("FoldMin with 17 minima on 16 functions did not panic")
		}
	}()
	f.FoldMin(1, make([]uint64, 17))
}

// foldRef is the fold by definition, one function at a time: function i's
// minimum over keys under NewTable32(Mix64(base + i·stride)) and the first
// key to reach it.
func foldRef(n int, base, stride uint64, keys []uint32) ([]uint64, []uint32) {
	mins, arg := make([]uint64, n), make([]uint32, n)
	for i := range n {
		tab := NewTable32(Mix64(base + uint64(i)*stride))
		mins[i], arg[i] = math.MaxUint64, keys[0]
		for _, x := range keys {
			if h := tab.Hash(x); h < mins[i] {
				mins[i], arg[i] = h, x
			}
		}
	}
	return mins, arg
}

// folded folds keys with FoldMin over all n functions and with FoldArgMin
// in blocks of 128, as minhash.Signer does, and returns both minima and the
// arg-min keys.
func folded(f *Family32, keys []uint32) (mins, argMins []uint64, arg []uint32) {
	mins, argMins, arg = make([]uint64, f.n), make([]uint64, f.n), make([]uint32, f.n)
	for i := range mins {
		mins[i], argMins[i], arg[i] = math.MaxUint64, math.MaxUint64, keys[0]
	}
	for _, x := range keys {
		f.FoldMin(x, mins)
		for lo := 0; lo < f.n; lo += 128 {
			hi := min(lo+128, f.n)
			f.FoldArgMin(x, lo, argMins[lo:hi], arg[lo:hi])
		}
	}
	return mins, argMins, arg
}

// FuzzFold requires FoldMin and FoldArgMin, on the path picked at start-up
// and on the Go loops, to give exactly the minima and arg-min keys of the
// one-function-at-a-time loop over NewTable32, at any width from 1 to 600
// functions (so across the 8-function blocks, their tail and FoldArgMin's
// 128-function offsets) and on any keys, duplicates included. The seed
// corpus covers the widths 1, 7, 8, 9, 64, 128, 300 and 512.
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
		stride := 1 + seed%2
		keys := []uint32{0}
		if len(raw) >= 4 {
			keys = make([]uint32, min(len(raw)/4, 256))
			for i := range keys {
				keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
		}
		fam := NewFamily32(width, seed, stride)
		mins, argMins, arg := folded(fam, keys)
		goMins, goArgMins, goArg := mins, argMins, arg
		WithGoFold(func() { goMins, goArgMins, goArg = folded(fam, keys) })
		wantMins, wantArg := foldRef(width, seed, stride, keys)
		for i := range width {
			if mins[i] != wantMins[i] || argMins[i] != wantMins[i] || arg[i] != wantArg[i] ||
				goMins[i] != wantMins[i] || goArgMins[i] != wantMins[i] || goArg[i] != wantArg[i] {
				t.Fatalf("n=%d seed=%#x stride %d function %d: FoldMin %#x, FoldArgMin %#x key %d; Go loops %#x, %#x key %d; Table32 %#x key %d",
					width, seed, stride, i, mins[i], argMins[i], arg[i], goMins[i], goArgMins[i], goArg[i], wantMins[i], wantArg[i])
			}
		}
	})
}
