#include "textflag.h"

// func foldMinAVX512(r0, r1, r2, r3, mins []uint64)
//
// foldMinGo on 8 functions at a time: the XOR of the four rows, then the
// unsigned minimum with the running minima. FoldMin passes whole 8-function
// blocks and every row as long as mins.
//
// SI, DI, R8 and R9 the rows, R10 the minima, CX their length in bytes, AX
// the byte offset of the block.
TEXT ·foldMinAVX512(SB), NOSPLIT, $0-120
	MOVQ r0_base+0(FP), SI
	MOVQ r1_base+24(FP), DI
	MOVQ r2_base+48(FP), R8
	MOVQ r3_base+72(FP), R9
	MOVQ mins_base+96(FP), R10
	MOVQ mins_len+104(FP), CX
	SHLQ $3, CX
	JZ   done
	XORQ AX, AX

loop:
	VMOVDQU64 (SI)(AX*1), Z0
	VPXORQ    (DI)(AX*1), Z0, Z0
	VPXORQ    (R8)(AX*1), Z0, Z0
	VPXORQ    (R9)(AX*1), Z0, Z0
	VPMINUQ   (R10)(AX*1), Z0, Z0
	VMOVDQU64 Z0, (R10)(AX*1)
	ADDQ      $64, AX
	CMPQ      AX, CX
	JLT       loop
	VZEROUPPER

done:
	RET

// func foldArgMinAVX512(x uint32, r0, r1, r2, r3, mins []uint64, arg []uint32)
//
// foldArgMinGo on 8 functions at a time: the hash values as in
// foldMinAVX512, a strict unsigned compare with the running minima into K1,
// the minimum, and x stored to the arg-min lanes K1 selects, so that a tie
// keeps the earlier key. FoldArgMin passes whole 8-function blocks and every
// slice as long as mins.
//
// SI, DI, R8 and R9 the rows, R10 the minima, R11 the arg-min keys, CX the
// minima's length in bytes, AX the block's byte offset in the minima and BX
// in the keys; Y2 holds x in every 32-bit lane.
TEXT ·foldArgMinAVX512(SB), NOSPLIT, $0-152
	MOVQ mins_len+112(FP), CX
	SHLQ $3, CX
	JZ   done
	MOVL x+0(FP), DX
	VPBROADCASTD DX, Y2
	MOVQ r0_base+8(FP), SI
	MOVQ r1_base+32(FP), DI
	MOVQ r2_base+56(FP), R8
	MOVQ r3_base+80(FP), R9
	MOVQ mins_base+104(FP), R10
	MOVQ arg_base+128(FP), R11
	XORQ AX, AX
	XORQ BX, BX

loop:
	VMOVDQU64 (SI)(AX*1), Z0
	VPXORQ    (DI)(AX*1), Z0, Z0
	VPXORQ    (R8)(AX*1), Z0, Z0
	VPXORQ    (R9)(AX*1), Z0, Z0
	VMOVDQU64 (R10)(AX*1), Z1
	VPCMPUQ   $1, Z1, Z0, K1 // LT: the hash is below the minimum
	VPMINUQ   Z1, Z0, Z0
	VMOVDQU64 Z0, (R10)(AX*1)
	VMOVDQU32 Y2, K1, (R11)(BX*1)
	ADDQ      $64, AX
	ADDQ      $32, BX
	CMPQ      AX, CX
	JLT       loop
	VZEROUPPER

done:
	RET

// func hasAVX512() bool
//
// AVX-512F and AVX-512VL are CPUID leaf 7 (subleaf 0) EBX bits 16 and 31.
// The OS saves the state they use if CPUID leaf 1 ECX has OSXSAVE (bit 27)
// and XCR0, read by XGETBV with ECX 0, has the SSE, AVX, opmask, ZMM0–15
// upper-half and ZMM16–31 bits (0xE6). Leaf 7 is read only where leaf 0
// says it exists, and XGETBV only where OSXSAVE says it may run.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80010000, BX
	CMPL BX, $0x80010000
	JNE  no
	MOVB $1, ret+0(FP)

no:
	RET
