package tabhash

// avx512 reports whether ArgMins and FoldBits run their AVX-512 kernels
// (fold_amd64.s). The probe at start-up sets it where the CPU and the OS
// have AVX-512F and AVX-512VL (fold_amd64.go); it is false on other CPUs
// and architectures, where the Go loops below are the only path.
var avx512 bool

// vpopcntdq reports whether, beyond avx512, the CPU has AVX512_VPOPCNTDQ.
// The same probe sets it; HasVPOPCNTDQ reads it.
var vpopcntdq bool

// HasVPOPCNTDQ reports whether the CPU and the OS have AVX-512F, AVX-512VL
// and AVX512_VPOPCNTDQ, the vector population count: the sketch filter in
// package verify picks its AVX-512 path by it, so that one probe reads the
// CPU's and the OS's AVX-512 state.
func HasVPOPCNTDQ() bool { return vpopcntdq }

// argBlock is how many functions the ArgMins kernel folds per pass over a
// set: their 128 running minima (64 bits each) fill sixteen ZMM registers
// and their arg-min keys eight more. 128, the default signature length
// everywhere, is one pass.
const argBlock = 128

// ArgMins writes to arg[i], for every i < len(arg), the first key of set
// with the least hash under function i: the MinHash of set under the
// family's first len(arg) functions. It allocates nothing, and panics on an
// empty set or if len(arg) exceeds the family's n functions.
func (f *Family32) ArgMins(set []uint32, arg []uint32) {
	if len(set) == 0 {
		panic("tabhash: ArgMins of an empty set")
	}
	if len(arg) > f.n {
		panic("tabhash: fold past the family's functions")
	}
	lo := 0
	if avx512 {
		for ; lo+argBlock <= len(arg); lo += argBlock {
			argMinAVX512(f.rows[lo:], f.n, set, arg[lo:lo+argBlock])
		}
	}
	for ; lo < len(arg); lo += argBlock {
		argMinGo(f.rows[lo:], f.n, set, arg[lo:min(lo+argBlock, len(arg))])
	}
}

// FoldBits writes to out the 1-bit minwise sketch of set under the family:
// bit i%64 of out[i/64] is the low bit of function i's minimum over set. It
// allocates nothing, and panics on an empty set or unless out has exactly
// one word per 64 functions.
func (f *Low32) FoldBits(set []uint32, out []uint64) {
	if len(set) == 0 {
		panic("tabhash: FoldBits of an empty set")
	}
	if 64*len(out) != f.n {
		panic("tabhash: FoldBits into other than one word per 64 functions")
	}
	for w := 0; w < len(out); w += bitBlock / 64 {
		words := out[w:min(w+bitBlock/64, len(out))]
		if avx512 {
			foldBitsAVX512(f.rows[64*w:], f.n, set, words)
		} else {
			foldBitsGo(f.rows[64*w:], f.n, set, words)
		}
	}
}

// bitBlock is how many functions the FoldBits kernel folds per pass over a
// set: their 256 running minima (32 bits each) fill sixteen ZMM registers.
const bitBlock = 256

// keyRows returns the four rows of x in a family of n functions, each cut
// to its first k entries. rows is the family's rows from the first function
// wanted, so entry i of the four rows' XOR is the hash of x under the i-th
// function from there.
func keyRows[T uint32 | uint64](rows []T, n int, x uint32, k int) (r0, r1, r2, r3 []T) {
	return rows[int(byte(x))*n:][:k], rows[(256+int(byte(x>>8)))*n:][:k],
		rows[(512+int(byte(x>>16)))*n:][:k], rows[(768+int(x>>24))*n:][:k]
}

// argMinGo is ArgMins' pass in Go, the reference for argMinAVX512 and the
// path wherever that is missing: it writes the arg-min keys of set under
// the len(arg) <= argBlock functions whose rows start rows. The first key's
// hashes are the minima to beat, and the compare is strict, so a tie keeps
// the earlier key.
func argMinGo(rows []uint64, n int, set []uint32, arg []uint32) {
	var buf [argBlock]uint64
	mins := buf[:len(arg)]
	r0, r1, r2, r3 := keyRows(rows, n, set[0], len(mins))
	for i := range mins {
		mins[i], arg[i] = r0[i]^r1[i]^r2[i]^r3[i], set[0]
	}
	for _, x := range set[1:] {
		r0, r1, r2, r3 := keyRows(rows, n, x, len(mins))
		argMinKey(x, r0, r1, r2, r3, mins, arg)
	}
}

// argMinKey folds the hashes of key x, the XOR of its rows r0 to r3, into
// mins and arg. It is branch-free: the new minimum is a min and the key a
// select on the same strict compare. Slicing every row to len(mins) lets
// the compiler drop the loop's bounds checks. It stays a call: inlined into
// the loop over the keys, its loop spills that loop's registers.
//
//go:noinline
func argMinKey(x uint32, r0, r1, r2, r3, mins []uint64, arg []uint32) {
	n := len(mins)
	r0, r1, r2, r3, arg = r0[:n], r1[:n], r2[:n], r3[:n], arg[:n]
	for i, m := range mins {
		h := r0[i] ^ r1[i] ^ r2[i] ^ r3[i]
		best := arg[i]
		if h < m {
			best = x
		}
		arg[i] = best
		mins[i] = min(h, m)
	}
}

// foldBitsGo is FoldBits' pass in Go, the reference for foldBitsAVX512 and
// the path wherever that is missing: it writes to out the low bits of the
// minima over set of the 64·len(out) <= bitBlock functions whose rows start
// rows.
func foldBitsGo(rows []uint32, n int, set []uint32, out []uint64) {
	var buf [bitBlock]uint32
	mins := buf[:64*len(out)]
	r0, r1, r2, r3 := keyRows(rows, n, set[0], len(mins))
	for i := range mins {
		mins[i] = r0[i] ^ r1[i] ^ r2[i] ^ r3[i]
	}
	for _, x := range set[1:] {
		r0, r1, r2, r3 := keyRows(rows, n, x, len(mins))
		minKey(r0, r1, r2, r3, mins)
	}
	for w := range out {
		var word uint64
		for b, m := range mins[64*w:][:64] {
			word |= uint64(m&1) << b
		}
		out[w] = word
	}
}

// minKey folds the hashes of a key, the XOR of its rows r0 to r3, into
// mins, without bounds checks and out of line as argMinKey.
//
//go:noinline
func minKey(r0, r1, r2, r3, mins []uint32) {
	n := len(mins)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for i, m := range mins {
		mins[i] = min(m, r0[i]^r1[i]^r2[i]^r3[i])
	}
}

// WithGoFold runs f with ArgMins and FoldBits on their Go loops instead of
// the kernels picked at start-up, and reports whether those were different;
// if they were not, f is not run. Tests outside this package use it to sign
// and sketch once per path; nothing else calls it.
func WithGoFold(f func()) bool {
	if !avx512 {
		return false
	}
	avx512 = false
	defer func() { avx512 = true }()
	f()
	return true
}
