package tabhash

// argMinAVX512 is argMinGo in amd64 assembly (fold_amd64.s) on a whole
// block: ArgMins passes exactly argBlock keys in arg.
//
//go:noescape
func argMinAVX512(rows []uint64, n int, set []uint32, arg []uint32)

// foldBitsAVX512 is foldBitsGo in amd64 assembly (fold_amd64.s): it folds a
// whole block of bitBlock functions, reading up to lowPad entries past the
// last row where fewer are left, and stores only the len(out) words asked
// for.
//
//go:noescape
func foldBitsAVX512(rows []uint32, n int, set []uint32, out []uint64)

// probeAVX512 reports whether the CPU has AVX-512F and AVX-512VL and the OS
// saves the registers they use, and whether it then also has
// AVX512_VPOPCNTDQ.
func probeAVX512() (f, popcnt bool)

func init() {
	avx512, vpopcntdq = probeAVX512()
}
