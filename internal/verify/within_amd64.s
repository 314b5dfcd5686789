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

// func withinAVX512(row, rows []uint64, maxHam, head int, hits []int32) int
//
// withinGo eight rows at a time with AVX-512 and VPOPCNTQ, without the
// early exit (head is not read): each of the eight rows of a group is XORed
// with the row, one ZMM register per 8-word block, and popcounted per word;
// three levels of unpacking, shuffling and adding reduce the eight count
// vectors to one holding each row's distance in its own lane, and one
// signed compare with maxHam (Near passes -1) gives the rows that pass, as
// bits of K0, written to hits in order. The last group of fewer than eight
// rows runs the same code with the missing rows' loads masked off by
// K1–K7, which suppresses their faults, and their bits cleared by R8.
// within has checked that len(row) is a whole number of 8-word blocks and
// that hits has one slot per row.
//
// SI row, BX the row width in bytes, R15 the group's first row, DI and
// R12–R14 its rows 0–3 (rows 4–7 are BX*4 further), R11 the index of its
// first row, R9 the number of rows, R10 hits, AX the number of hits, Z31
// maxHam in every lane; Z0–Z7 the eight rows' counts.
TEXT ·withinAVX512(SB), NOSPLIT, $0-96
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), BX
	SHLQ         $3, BX
	MOVQ         rows_base+24(FP), R15
	VPBROADCASTQ maxHam+48(FP), Z31
	MOVQ         hits_base+64(FP), R10
	MOVQ         hits_len+72(FP), R9
	XORQ         R11, R11
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           done
	MOVL         $0xff, R8
	KMOVW        R8, K1
	KMOVW        R8, K2
	KMOVW        R8, K3
	KMOVW        R8, K4
	KMOVW        R8, K5
	KMOVW        R8, K6
	KMOVW        R8, K7

group:
	// Fewer than eight rows left: mask the missing ones off.
	MOVQ R9, CX
	SUBQ R11, CX
	CMPQ CX, $8
	JGE  rows
	MOVL $1, R8
	SHLL CX, R8
	DECL R8

// ROWMASK sets Kr to every lane if row r of the group exists, else none.
#define ROWMASK(r, Kr) \
	MOVL R8, DX; SHRL $r, DX; ANDL $1, DX; NEGL DX; KMOVW DX, Kr

	ROWMASK(1, K1)
	ROWMASK(2, K2)
	ROWMASK(3, K3)
	ROWMASK(4, K4)
	ROWMASK(5, K5)
	ROWMASK(6, K6)
	ROWMASK(7, K7)

rows:
	MOVQ R15, DI
	LEAQ (DI)(BX*1), R12
	LEAQ (DI)(BX*2), R13
	LEAQ (R12)(BX*2), R14

// XOR8 XORs the row block Z8 with the eight rows' blocks into Za–Zh and
// popcounts each word.
#define XOR8(Za, Zb, Zc, Zd, Ze, Zf, Zg, Zh) \
	VPXORQ   (DI), Z8, Za; \
	VPXORQ.Z (R12), Z8, K1, Zb; \
	VPXORQ.Z (R13), Z8, K2, Zc; \
	VPXORQ.Z (R14), Z8, K3, Zd; \
	VPXORQ.Z (DI)(BX*4), Z8, K4, Ze; \
	VPXORQ.Z (R12)(BX*4), Z8, K5, Zf; \
	VPXORQ.Z (R13)(BX*4), Z8, K6, Zg; \
	VPXORQ.Z (R14)(BX*4), Z8, K7, Zh; \
	VPOPCNTQ Za, Za; \
	VPOPCNTQ Zb, Zb; \
	VPOPCNTQ Zc, Zc; \
	VPOPCNTQ Zd, Zd; \
	VPOPCNTQ Ze, Ze; \
	VPOPCNTQ Zf, Zf; \
	VPOPCNTQ Zg, Zg; \
	VPOPCNTQ Zh, Zh

	VMOVDQU64 (SI), Z8
	XOR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

	// Any further blocks: DX walks the row, CX counts the bytes left.
	MOVQ BX, CX
	SUBQ $64, CX
	JZ   reduce
	MOVQ SI, DX

block:
	ADDQ      $64, DX
	ADDQ      $64, DI
	ADDQ      $64, R12
	ADDQ      $64, R13
	ADDQ      $64, R14
	VMOVDQU64 (DX), Z8
	XOR8(Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16)
	VPADDQ    Z9, Z0, Z0
	VPADDQ    Z10, Z1, Z1
	VPADDQ    Z11, Z2, Z2
	VPADDQ    Z12, Z3, Z3
	VPADDQ    Z13, Z4, Z4
	VPADDQ    Z14, Z5, Z5
	VPADDQ    Z15, Z6, Z6
	VPADDQ    Z16, Z7, Z7
	SUBQ      $64, CX
	JNZ       block

reduce:
	// Rows 2k and 2k+1 side by side in each 128-bit lane, a partial sum
	// per lane.
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPADDQ      Z9, Z8, Z0
	VPUNPCKLQDQ Z3, Z2, Z8
	VPUNPCKHQDQ Z3, Z2, Z9
	VPADDQ      Z9, Z8, Z2
	VPUNPCKLQDQ Z5, Z4, Z8
	VPUNPCKHQDQ Z5, Z4, Z9
	VPADDQ      Z9, Z8, Z4
	VPUNPCKLQDQ Z7, Z6, Z8
	VPUNPCKHQDQ Z7, Z6, Z9
	VPADDQ      Z9, Z8, Z6

	// Rows 0–3 (Z0) and 4–7 (Z4), two partial sums each.
	VSHUFI64X2 $0x88, Z2, Z0, Z8
	VSHUFI64X2 $0xdd, Z2, Z0, Z9
	VPADDQ     Z9, Z8, Z0
	VSHUFI64X2 $0x88, Z6, Z4, Z8
	VSHUFI64X2 $0xdd, Z6, Z4, Z9
	VPADDQ     Z9, Z8, Z4

	// Row k's distance in lane k.
	VSHUFI64X2 $0x88, Z4, Z0, Z8
	VSHUFI64X2 $0xdd, Z4, Z0, Z9
	VPADDQ     Z9, Z8, Z0

	// One signed comparison with maxHam: Near passes -1.
	VPCMPQ $2, Z31, Z0, K0
	KMOVW  K0, DX
	ANDL   R8, DX
	JZ     next

hit:
	BSFL DX, CX
	ADDL R11, CX
	MOVL CX, (R10)(AX*4)
	INCQ AX
	LEAL -1(DX), CX
	ANDL CX, DX
	JNZ  hit

next:
	ADDQ $8, R11
	LEAQ (R15)(BX*8), R15
	CMPQ R11, R9
	JLT  group

done:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET
