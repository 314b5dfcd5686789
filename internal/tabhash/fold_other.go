//go:build !amd64

package tabhash

// Without the amd64 kernels avx512 stays false and the fold runs its Go
// loops alone; these stand in for the kernels so that FoldMin and
// FoldArgMin compile, and are never called.

func foldMinAVX512(r0, r1, r2, r3, mins []uint64) {
	panic("tabhash: no AVX-512 kernel on this architecture")
}

func foldArgMinAVX512(x uint32, r0, r1, r2, r3, mins []uint64, arg []uint32) {
	panic("tabhash: no AVX-512 kernel on this architecture")
}
