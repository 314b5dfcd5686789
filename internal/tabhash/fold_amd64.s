#include "textflag.h"

// Both kernels fold a whole set with the running minima in registers, one
// key at a time: the key's four rows are a base per key byte position
// (R8–R11, 256 rows apart) plus the key's byte times the row length in
// bytes (BX), and the XOR of the four rows is every function's hash of the
// key. The first key's hashes start the minima, so nothing is initialised
// in memory; SI walks the set and CX counts the keys left.

// ROWS points R12–R15 at the rows of key DX.
#define ROWS \
	MOVL  DX, R12; ANDL $0xff, R12; IMULQ BX, R12; ADDQ R8, R12; \
	MOVL  DX, R13; SHRL $8, R13; ANDL $0xff, R13; IMULQ BX, R13; ADDQ R9, R13; \
	MOVL  DX, R14; SHRL $16, R14; ANDL $0xff, R14; IMULQ BX, R14; ADDQ R10, R14; \
	MOVL  DX, R15; SHRL $24, R15; IMULQ BX, R15; ADDQ R11, R15

// BASES sets R8–R11 from the rows in R8 and the row length in BX.
#define BASES \
	MOVQ BX, AX; SHLQ $8, AX; \
	LEAQ (R8)(AX*1), R9; \
	LEAQ (R9)(AX*1), R10; \
	LEAQ (R10)(AX*1), R11

// HASH32 loads into Z the 16 32-bit hashes of the key at byte offset off of
// its rows; HASH64 the 8 64-bit ones.
#define HASH32(off, Z) \
	VMOVDQU32 off(R12), Z; \
	VPXORD    off(R13), Z, Z; \
	VPXORD    off(R14), Z, Z; \
	VPXORD    off(R15), Z, Z

#define HASH64(off, Z) \
	VMOVDQU64 off(R12), Z; \
	VPXORQ    off(R13), Z, Z; \
	VPXORQ    off(R14), Z, Z; \
	VPXORQ    off(R15), Z, Z

// MIN32 folds the 16 hashes at off into the minima Zm, through Zt.
#define MIN32(off, Zm, Zt) \
	VMOVDQU32 off(R12), Zt; \
	VPXORD    off(R13), Zt, Zt; \
	VPXORD    off(R14), Zt, Zt; \
	VPXORD    off(R15), Zt, Zt; \
	VPMINUD   Zt, Zm, Zm

// func foldBitsAVX512(rows []uint32, n int, set []uint32, out []uint64)
//
// foldBitsGo on a whole block of 256 functions: their 32-bit minima in
// Z0–Z15, 16 functions to a register, then the low bit of each minimum
// packed by VPTESTMD against 1 in every lane (Z16), 64 bits to a word, and
// the len(out) words asked for stored. Rows of fewer than 256 functions
// left are read past, into the next row or lowPad, and those lanes unused.
TEXT ·foldBitsAVX512(SB), NOSPLIT, $0-80
	MOVQ rows_base+0(FP), R8
	MOVQ n+24(FP), BX
	SHLQ $2, BX
	BASES
	MOVQ set_base+32(FP), SI
	MOVQ set_len+40(FP), CX
	MOVL (SI), DX
	ROWS
	HASH32(0, Z0)
	HASH32(64, Z1)
	HASH32(128, Z2)
	HASH32(192, Z3)
	HASH32(256, Z4)
	HASH32(320, Z5)
	HASH32(384, Z6)
	HASH32(448, Z7)
	HASH32(512, Z8)
	HASH32(576, Z9)
	HASH32(640, Z10)
	HASH32(704, Z11)
	HASH32(768, Z12)
	HASH32(832, Z13)
	HASH32(896, Z14)
	HASH32(960, Z15)

bitsNext:
	ADDQ $4, SI
	DECQ CX
	JZ   bitsPack
	MOVL (SI), DX
	ROWS
	MIN32(0, Z0, Z16)
	MIN32(64, Z1, Z17)
	MIN32(128, Z2, Z18)
	MIN32(192, Z3, Z19)
	MIN32(256, Z4, Z20)
	MIN32(320, Z5, Z21)
	MIN32(384, Z6, Z22)
	MIN32(448, Z7, Z23)
	MIN32(512, Z8, Z24)
	MIN32(576, Z9, Z25)
	MIN32(640, Z10, Z26)
	MIN32(704, Z11, Z27)
	MIN32(768, Z12, Z28)
	MIN32(832, Z13, Z29)
	MIN32(896, Z14, Z30)
	MIN32(960, Z15, Z31)
	JMP  bitsNext

bitsPack:
	MOVL         $1, AX
	VPBROADCASTD AX, Z16
	MOVQ         out_base+56(FP), DI
	MOVQ         out_len+64(FP), CX

// PACK leaves in AX the word of the low bits of Za–Zd, Za's in bits 0–15.
#define PACK(Za, Zb, Zc, Zd) \
	VPTESTMD Z16, Za, K1; KMOVW K1, AX; \
	VPTESTMD Z16, Zb, K2; KMOVW K2, DX; SHLQ $16, DX; ORQ DX, AX; \
	VPTESTMD Z16, Zc, K3; KMOVW K3, DX; SHLQ $32, DX; ORQ DX, AX; \
	VPTESTMD Z16, Zd, K4; KMOVW K4, DX; SHLQ $48, DX; ORQ DX, AX

	PACK(Z0, Z1, Z2, Z3)
	MOVQ AX, 0(DI)
	DECQ CX
	JZ   bitsDone
	PACK(Z4, Z5, Z6, Z7)
	MOVQ AX, 8(DI)
	DECQ CX
	JZ   bitsDone
	PACK(Z8, Z9, Z10, Z11)
	MOVQ AX, 16(DI)
	DECQ CX
	JZ   bitsDone
	PACK(Z12, Z13, Z14, Z15)
	MOVQ AX, 24(DI)

bitsDone:
	VZEROUPPER
	RET

// ARGMIN folds 16 functions' 64-bit hashes at off into the minima Zlo and
// Zhi (8 functions each) and, where a hash is strictly below its minimum,
// the key in Z24 into their arg-min keys Zarg (16 32-bit lanes): the two
// compares' masks are joined into K3, low functions in the low bits, and a
// tie keeps the earlier key.
#define ARGMIN(off, Zlo, Zhi, Zarg) \
	VMOVDQU64 off(R12), Z25; \
	VPXORQ    off(R13), Z25, Z25; \
	VPXORQ    off(R14), Z25, Z25; \
	VPXORQ    off(R15), Z25, Z25; \
	VMOVDQU64 off+64(R12), Z26; \
	VPXORQ    off+64(R13), Z26, Z26; \
	VPXORQ    off+64(R14), Z26, Z26; \
	VPXORQ    off+64(R15), Z26, Z26; \
	VPCMPUQ   $1, Zlo, Z25, K1; \
	VPCMPUQ   $1, Zhi, Z26, K2; \
	VPMINUQ   Z25, Zlo, Zlo; \
	VPMINUQ   Z26, Zhi, Zhi; \
	KUNPCKBW  K1, K2, K3; \
	VMOVDQU32 Z24, K3, Zarg

// func argMinAVX512(rows []uint64, n int, set []uint32, arg []uint32)
//
// argMinGo on a whole block of 128 functions: their 64-bit minima in
// Z0–Z15, 8 functions to a register, their arg-min keys in Z16–Z23, 16 to
// a register, stored to arg at the end.
TEXT ·argMinAVX512(SB), NOSPLIT, $0-80
	MOVQ rows_base+0(FP), R8
	MOVQ n+24(FP), BX
	SHLQ $3, BX
	BASES
	MOVQ set_base+32(FP), SI
	MOVQ set_len+40(FP), CX
	MOVL (SI), DX
	ROWS
	HASH64(0, Z0)
	HASH64(64, Z1)
	HASH64(128, Z2)
	HASH64(192, Z3)
	HASH64(256, Z4)
	HASH64(320, Z5)
	HASH64(384, Z6)
	HASH64(448, Z7)
	HASH64(512, Z8)
	HASH64(576, Z9)
	HASH64(640, Z10)
	HASH64(704, Z11)
	HASH64(768, Z12)
	HASH64(832, Z13)
	HASH64(896, Z14)
	HASH64(960, Z15)
	VPBROADCASTD DX, Z16
	VMOVDQA32    Z16, Z17
	VMOVDQA32    Z16, Z18
	VMOVDQA32    Z16, Z19
	VMOVDQA32    Z16, Z20
	VMOVDQA32    Z16, Z21
	VMOVDQA32    Z16, Z22
	VMOVDQA32    Z16, Z23

argNext:
	ADDQ $4, SI
	DECQ CX
	JZ   argStore
	MOVL (SI), DX
	ROWS
	VPBROADCASTD DX, Z24
	ARGMIN(0, Z0, Z1, Z16)
	ARGMIN(128, Z2, Z3, Z17)
	ARGMIN(256, Z4, Z5, Z18)
	ARGMIN(384, Z6, Z7, Z19)
	ARGMIN(512, Z8, Z9, Z20)
	ARGMIN(640, Z10, Z11, Z21)
	ARGMIN(768, Z12, Z13, Z22)
	ARGMIN(896, Z14, Z15, Z23)
	JMP  argNext

argStore:
	MOVQ      arg_base+56(FP), DI
	VMOVDQU32 Z16, 0(DI)
	VMOVDQU32 Z17, 64(DI)
	VMOVDQU32 Z18, 128(DI)
	VMOVDQU32 Z19, 192(DI)
	VMOVDQU32 Z20, 256(DI)
	VMOVDQU32 Z21, 320(DI)
	VMOVDQU32 Z22, 384(DI)
	VMOVDQU32 Z23, 448(DI)
	VZEROUPPER
	RET

// func probeAVX512() (f, popcnt bool)
//
// AVX-512F and AVX-512VL are CPUID leaf 7 (subleaf 0) EBX bits 16 and 31,
// AVX512_VPOPCNTDQ the same leaf's ECX bit 14. The OS saves the state they
// use if CPUID leaf 1 ECX has OSXSAVE (bit 27) and XCR0, read by XGETBV with
// ECX 0, has the SSE, AVX, opmask, ZMM0–15 upper-half and ZMM16–31 bits
// (0xE6). Leaf 7 is read only where leaf 0 says it exists, and XGETBV only
// where OSXSAVE says it may run. popcnt is set only with f.
TEXT ·probeAVX512(SB), NOSPLIT, $0-2
	MOVB $0, f+0(FP)
	MOVB $0, popcnt+1(FP)
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
	MOVB $1, f+0(FP)
	SHRL $14, CX
	ANDL $1, CX
	MOVB CX, popcnt+1(FP)

no:
	RET
