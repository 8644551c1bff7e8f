//go:build amd64 && !purego

#include "textflag.h"

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// The round key at byte offset off of the schedule at AX, into X8.
#define KEY(off) MOVOU off(AX), X8

#define XOR8 PXOR X8, X0; PXOR X8, X1; PXOR X8, X2; PXOR X8, X3; \
	PXOR X8, X4; PXOR X8, X5; PXOR X8, X6; PXOR X8, X7
#define ENC8 AESENC X8, X0; AESENC X8, X1; AESENC X8, X2; AESENC X8, X3; \
	AESENC X8, X4; AESENC X8, X5; AESENC X8, X6; AESENC X8, X7
#define LAST8 AESENCLAST X8, X0; AESENCLAST X8, X1; AESENCLAST X8, X2; AESENCLAST X8, X3; \
	AESENCLAST X8, X4; AESENCLAST X8, X5; AESENCLAST X8, X6; AESENCLAST X8, X7

#define XOR4 PXOR X8, X0; PXOR X8, X1; PXOR X8, X2; PXOR X8, X3
#define ENC4 AESENC X8, X0; AESENC X8, X1; AESENC X8, X2; AESENC X8, X3
#define LAST4 AESENCLAST X8, X0; AESENCLAST X8, X1; AESENCLAST X8, X2; AESENCLAST X8, X3

#define XOR1 PXOR X8, X0
#define ENC1 AESENC X8, X0
#define LAST1 AESENCLAST X8, X0

// AES-128 on the live lanes: whitening, nine full rounds, the last.
#define ROUNDS(XORW, ENCW, LASTW) \
	KEY(0); XORW; \
	KEY(16); ENCW; KEY(32); ENCW; KEY(48); ENCW; \
	KEY(64); ENCW; KEY(80); ENCW; KEY(96); ENCW; \
	KEY(112); ENCW; KEY(128); ENCW; KEY(144); ENCW; \
	KEY(160); LASTW

// func aesBlocks(rk *roundKeys, dst, src []byte)
// Requires: AES, SSE2
TEXT ·aesBlocks(SB), NOSPLIT, $0-56
	MOVQ rk+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $4, CX

loop8:
	CMPQ CX, $8
	JB   tail4
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 64(SI), X4
	MOVOU 80(SI), X5
	MOVOU 96(SI), X6
	MOVOU 112(SI), X7
	ROUNDS(XOR8, ENC8, LAST8)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $8, CX
	JMP  loop8

tail4:
	CMPQ CX, $4
	JB   tail1
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	ROUNDS(XOR4, ENC4, LAST4)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $4, CX

tail1:
	TESTQ CX, CX
	JZ    done
	MOVOU (SI), X0
	ROUNDS(XOR1, ENC1, LAST1)
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  CX
	JMP   tail1

done:
	RET

// The counter block (hi, lo), big-endian, into X: bytes 0–7 are hi's and
// 8–15 lo's, so the low quadword is bswap(hi) and the high one bswap(lo).
// Then (hi, lo) counts up by one, carrying from lo into hi.
#define CTR(X) MOVQ R9, R11; BSWAPQ R11; MOVQ R11, X; \
	MOVQ R8, R10; BSWAPQ R10; MOVQ R10, X10; PUNPCKLQDQ X10, X; \
	ADDQ $1, R8; ADCQ $0, R9

// func aesCTR(rk *roundKeys, dst []byte, hi, lo uint64)
// Requires: AES, SSE2
TEXT ·aesCTR(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ hi+32(FP), R9
	MOVQ lo+40(FP), R8
	SHRQ $4, CX

ctr8:
	CMPQ CX, $8
	JB   ctr4
	CTR(X0); CTR(X1); CTR(X2); CTR(X3)
	CTR(X4); CTR(X5); CTR(X6); CTR(X7)
	ROUNDS(XOR8, ENC8, LAST8)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ $128, DI
	SUBQ $8, CX
	JMP  ctr8

ctr4:
	CMPQ CX, $4
	JB   ctr1
	CTR(X0); CTR(X1); CTR(X2); CTR(X3)
	ROUNDS(XOR4, ENC4, LAST4)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ $64, DI
	SUBQ $4, CX

ctr1:
	TESTQ CX, CX
	JZ    ctrdone
	CTR(X0)
	ROUNDS(XOR1, ENC1, LAST1)
	MOVOU X0, (DI)
	ADDQ  $16, DI
	DECQ  CX
	JMP   ctr1

ctrdone:
	RET

// The input block of one lane of aesExpand: π(x) of the current seed,
// spilled to the frame at off, XORed with the tweak ⟨tagSeq, seq, b⟩
// (seq in the low quadword, tag|b in the high one). Then b counts on; at
// the end of a seed's blocks it restarts at 0 and SI moves to the next
// seed's π(x), without a branch, so a pass of eight lanes may span seeds.
#define TWEAK(X, off) MOVOU (SI), X; MOVOU X, off(SP); \
	MOVQ DX, R10; ORQ R9, R10; MOVQ R8, X10; MOVQ R10, X11; \
	PUNPCKLQDQ X11, X10; PXOR X10, X; \
	INCQ DX; CMPQ DX, BX; LEAQ 16(SI), R11; CMOVQEQ R11, SI; CMOVQEQ R12, DX

// The lane's π(x), from the frame at off, XORed back in.
#define UNTWEAK(X, off) MOVOU off(SP), X9; PXOR X9, X

// func aesExpand(rk *roundKeys, dst, px []byte, seq uint64, blocks int)
// Requires: AES, SSE2, CMOV
TEXT ·aesExpand(SB), NOSPLIT, $128-72
	MOVQ rk+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ px_base+32(FP), SI
	MOVQ seq+56(FP), R8
	MOVQ blocks+64(FP), BX
	MOVQ $0x0500000000000000, R9
	XORQ DX, DX
	XORQ R12, R12
	SHRQ $4, CX

exp8:
	CMPQ CX, $8
	JB   exp4
	TWEAK(X0, 0); TWEAK(X1, 16); TWEAK(X2, 32); TWEAK(X3, 48)
	TWEAK(X4, 64); TWEAK(X5, 80); TWEAK(X6, 96); TWEAK(X7, 112)
	ROUNDS(XOR8, ENC8, LAST8)
	UNTWEAK(X0, 0); UNTWEAK(X1, 16); UNTWEAK(X2, 32); UNTWEAK(X3, 48)
	UNTWEAK(X4, 64); UNTWEAK(X5, 80); UNTWEAK(X6, 96); UNTWEAK(X7, 112)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ $128, DI
	SUBQ $8, CX
	JMP  exp8

exp4:
	CMPQ CX, $4
	JB   exp1
	TWEAK(X0, 0); TWEAK(X1, 16); TWEAK(X2, 32); TWEAK(X3, 48)
	ROUNDS(XOR4, ENC4, LAST4)
	UNTWEAK(X0, 0); UNTWEAK(X1, 16); UNTWEAK(X2, 32); UNTWEAK(X3, 48)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ $64, DI
	SUBQ $4, CX

exp1:
	TESTQ CX, CX
	JZ    expdone
	TWEAK(X0, 0)
	ROUNDS(XOR1, ENC1, LAST1)
	UNTWEAK(X0, 0)
	MOVOU X0, (DI)
	ADDQ  $16, DI
	DECQ  CX
	JMP   exp1

expdone:
	RET
