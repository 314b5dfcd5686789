//go:build !amd64

package tabhash

// Without the amd64 kernels avx512 stays false and the fold runs its Go
// loops alone; these stand in for the kernels so that ArgMins and FoldBits
// compile, and are never called.

func argMinAVX512(rows []uint64, n int, set []uint32, arg []uint32) {
	panic("tabhash: no AVX-512 kernel on this architecture")
}

func foldBitsAVX512(rows []uint32, n int, set []uint32, out []uint64) {
	panic("tabhash: no AVX-512 kernel on this architecture")
}
