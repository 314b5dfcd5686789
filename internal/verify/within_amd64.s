#include "textflag.h"

// func withinPOPCNT(row, rows []uint64, maxHam, head int, hits []int32) int
//
// withinGo with the POPCNT instruction; within has checked that len(row) is
// a whole number of 8-word blocks and that hits has room for every row.
//
// SI row, DI the row of rows being compared, DX the last whole one, BX the
// row width in bytes, R8 maxHam, R9 head, R10 hits, R11 the row index, AX
// the number of hits; R12 the distance, R13–R15 and CX the words in flight.
TEXT ·withinPOPCNT(SB), NOSPLIT, $0-96
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), BX
	SHLQ $3, BX
	MOVQ rows_base+24(FP), DI
	MOVQ rows_len+32(FP), DX
	SHLQ $3, DX
	MOVQ maxHam+48(FP), R8
	MOVQ head+56(FP), R9
	MOVQ hits_base+64(FP), R10
	XORQ R11, R11
	XORQ AX, AX
	SUBQ BX, DX
	JLT  done
	ADDQ DI, DX

loop:
	// The first four words, and the one early exit.
	MOVQ    0(DI), R12
	XORQ    0(SI), R12
	POPCNTQ R12, R12
	MOVQ    8(DI), R13
	XORQ    8(SI), R13
	POPCNTQ R13, R13
	MOVQ    16(DI), R14
	XORQ    16(SI), R14
	POPCNTQ R14, R14
	MOVQ    24(DI), R15
	XORQ    24(SI), R15
	POPCNTQ R15, R15
	ADDQ    R13, R12
	ADDQ    R15, R14
	ADDQ    R14, R12
	CMPQ    R12, R9
	JGT     next

	// The rest of the first block.
	MOVQ    32(DI), R13
	XORQ    32(SI), R13
	POPCNTQ R13, R13
	MOVQ    40(DI), R14
	XORQ    40(SI), R14
	POPCNTQ R14, R14
	MOVQ    48(DI), R15
	XORQ    48(SI), R15
	POPCNTQ R15, R15
	MOVQ    56(DI), CX
	XORQ    56(SI), CX
	POPCNTQ CX, CX
	ADDQ    R14, R13
	ADDQ    CX, R15
	ADDQ    R13, R12
	ADDQ    R15, R12

	// Any further blocks, eight words at a time; CX is their byte offset.
	CMPQ BX, $64
	JEQ  test
	MOVQ $64, CX

block:
	MOVQ    0(DI)(CX*1), R13
	XORQ    0(SI)(CX*1), R13
	POPCNTQ R13, R13
	MOVQ    8(DI)(CX*1), R14
	XORQ    8(SI)(CX*1), R14
	POPCNTQ R14, R14
	MOVQ    16(DI)(CX*1), R15
	XORQ    16(SI)(CX*1), R15
	POPCNTQ R15, R15
	ADDQ    R13, R12
	ADDQ    R15, R14
	ADDQ    R14, R12
	MOVQ    24(DI)(CX*1), R13
	XORQ    24(SI)(CX*1), R13
	POPCNTQ R13, R13
	MOVQ    32(DI)(CX*1), R14
	XORQ    32(SI)(CX*1), R14
	POPCNTQ R14, R14
	MOVQ    40(DI)(CX*1), R15
	XORQ    40(SI)(CX*1), R15
	POPCNTQ R15, R15
	ADDQ    R13, R12
	ADDQ    R15, R14
	ADDQ    R14, R12
	MOVQ    48(DI)(CX*1), R13
	XORQ    48(SI)(CX*1), R13
	POPCNTQ R13, R13
	MOVQ    56(DI)(CX*1), R14
	XORQ    56(SI)(CX*1), R14
	POPCNTQ R14, R14
	ADDQ    R13, R12
	ADDQ    R14, R12
	ADDQ    $64, CX
	CMPQ    CX, BX
	JLT     block

	// One signed comparison with maxHam: Near passes -1.
test:
	CMPQ R12, R8
	JGT  next
	MOVL R11, (R10)(AX*4)
	INCQ AX

next:
	INCQ R11
	ADDQ BX, DI
	CMPQ DI, DX
	JLS  loop

done:
	MOVQ AX, ret+88(FP)
	RET

// func hasPOPCNT() bool
//
// CPUID leaf 1 reports POPCNT in bit 23 of ECX.
TEXT ·hasPOPCNT(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $23, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
