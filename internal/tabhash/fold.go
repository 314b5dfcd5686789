package tabhash

// avx512 reports whether FoldMin and FoldArgMin run their AVX-512 kernels
// (fold_amd64.s). The probe at start-up sets it where the CPU and the OS
// have AVX-512F and AVX-512VL (fold_amd64.go); it is false on other CPUs
// and architectures, where the Go loops below are the only path.
var avx512 bool

// FoldMin folds key x into the running minima of functions [0, len(mins)):
// mins[i] = min(mins[i], h_i(x)). Starting the minima at MaxUint64 and
// folding every key of a set leaves each function's minimum over the set.
// It panics if len(mins) exceeds the family's n functions.
func (f *Family32) FoldMin(x uint32, mins []uint64) {
	r0, r1, r2, r3 := f.keyRows(x, 0, len(mins))
	i := 0
	if avx512 {
		i = len(mins) &^ 7
		foldMinAVX512(r0[:i], r1[:i], r2[:i], r3[:i], mins[:i])
	}
	if i < len(mins) {
		foldMinGo(r0[i:], r1[i:], r2[i:], r3[i:], mins[i:])
	}
}

// FoldArgMin folds key x into the running minima mins of functions
// [lo, lo+len(mins)) and their arg-min keys arg: where h_{lo+i}(x) <
// mins[i], mins[i] becomes that hash and arg[i] becomes x. The compare is
// strict, so a tie keeps the earlier key. It panics if lo < 0 or
// lo+len(mins) exceeds the family's n functions; arg must have room for
// len(mins) keys.
func (f *Family32) FoldArgMin(x uint32, lo int, mins []uint64, arg []uint32) {
	r0, r1, r2, r3 := f.keyRows(x, lo, len(mins))
	arg = arg[:len(mins)]
	i := 0
	if avx512 {
		i = len(mins) &^ 7
		foldArgMinAVX512(x, r0[:i], r1[:i], r2[:i], r3[:i], mins[:i], arg[:i])
	}
	if i < len(mins) {
		foldArgMinGo(x, r0[i:], r1[i:], r2[i:], r3[i:], mins[i:], arg[i:])
	}
}

// keyRows returns the four rows of x that Row returns, each sliced to
// functions [lo, lo+n), and panics unless 0 <= lo <= lo+n <= f.n. It
// indexes the rows itself, so that it is inlined: the fold runs once per
// token of every set signed or sketched.
func (f *Family32) keyRows(x uint32, lo, n int) (r0, r1, r2, r3 []uint64) {
	rows, stride := f.rows[lo:], f.n
	if lo+n > stride {
		panic("tabhash: fold past the family's functions")
	}
	return rows[int(byte(x))*stride:][:n], rows[(256+int(byte(x>>8)))*stride:][:n],
		rows[(512+int(byte(x>>16)))*stride:][:n], rows[(768+int(x>>24))*stride:][:n]
}

// foldMinGo is FoldMin's loop in Go, the reference for foldMinAVX512 and
// the path wherever that is missing. Slicing the rows to len(mins) lets
// the compiler drop the loop's bounds checks.
func foldMinGo(r0, r1, r2, r3, mins []uint64) {
	n := len(mins)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for i, best := range mins {
		mins[i] = min(best, r0[i]^r1[i]^r2[i]^r3[i])
	}
}

// foldArgMinGo is FoldArgMin's loop in Go, the reference for
// foldArgMinAVX512 and the path wherever that is missing. It is
// branch-free: the new minimum is a min and the key a select on the same
// strict compare.
func foldArgMinGo(x uint32, r0, r1, r2, r3, mins []uint64, arg []uint32) {
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

// WithGoFold runs f with FoldMin and FoldArgMin on their Go loops instead
// of the kernels picked at start-up, and reports whether those were
// different; if they were not, f is not run. Tests outside this package
// use it to sign and sketch once per path; nothing else calls it.
func WithGoFold(f func()) bool {
	if !avx512 {
		return false
	}
	avx512 = false
	defer func() { avx512 = true }()
	f()
	return true
}
