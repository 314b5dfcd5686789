package verify

import "repro/internal/tabhash"

// withinPOPCNT is withinGo in amd64 assembly with the POPCNT instruction
// (within_amd64.s): no feature test per word and no fallback call, so
// nothing is spilled. The caller checks that len(row) is a whole number of
// 8-word blocks and that hits has room for every row.
//
//go:noescape
func withinPOPCNT(row, rows []uint64, maxHam, head int, hits []int32) int

// withinAVX512 is withinGo in amd64 assembly with AVX-512 and VPOPCNTQ
// (within_amd64.s), eight rows at a time and without the early exit: head
// is not read. The caller checks what it checks for withinPOPCNT.
//
//go:noescape
func withinAVX512(row, rows []uint64, maxHam, head int, hits []int32) int

// hasPOPCNT reports whether the CPU has POPCNT (CPUID leaf 1, ECX bit 23).
func hasPOPCNT() bool

func init() {
	switch {
	case tabhash.HasVPOPCNTDQ():
		kernel = withinAVX512
	case hasPOPCNT():
		kernel = withinPOPCNT
	}
}
