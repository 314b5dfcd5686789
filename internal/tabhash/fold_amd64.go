package tabhash

// foldMinAVX512 is foldMinGo in amd64 assembly (fold_amd64.s), 8 functions
// to a ZMM register. The caller passes whole 8-function blocks, every slice
// as long as mins, and leaves the tail to foldMinGo.
//
//go:noescape
func foldMinAVX512(r0, r1, r2, r3, mins []uint64)

// foldArgMinAVX512 is foldArgMinGo in amd64 assembly (fold_amd64.s), with
// the same slices as foldMinAVX512 and arg as long as mins.
//
//go:noescape
func foldArgMinAVX512(x uint32, r0, r1, r2, r3, mins []uint64, arg []uint32)

// hasAVX512 reports whether the CPU has AVX-512F and AVX-512VL and the OS
// saves the registers they use.
func hasAVX512() bool

func init() {
	avx512 = hasAVX512()
}
