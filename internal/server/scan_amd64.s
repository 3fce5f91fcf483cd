// Admission kernels: one AVX-512 pass over a landed window of operand bytes.
//
// ghashAVX512 folds whole 16-byte blocks into a GHASH accumulator, 64
// blocks (sixteen ZMM loads) per step with one reduction: lane j of load i
// is multiplied by H^(64-4i-j) with four VPCLMULQDQ (schoolbook), the
// 256-bit products are summed over all lanes together with the
// accumulator's times H^64, and the sum is reduced once. The
// exponent test runs on the same loaded registers. finiteAVX512 is that
// test alone.
//
// Field elements are in the form the standard library's GCM assembly keeps
// them: a block's sixteen bytes reversed and read as a little-endian 128-bit
// integer; the powers of H are stored as H·x (each shifted left one bit and
// reduced), so the reduction is two folds by the polynomial constant.
//
// Both are dispatched only after cpuidHasVPCLMUL512 reports the
// instructions and the OS support for the register state.

#include "textflag.h"

DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

DATA gcmPoly<>+0(SB)/8, $0x0000000000000001
DATA gcmPoly<>+8(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

DATA expMask<>+0(SB)/8, $0x7ff0000000000000
GLOBL expMask<>(SB), RODATA|NOPTR, $8

// FOLD sums the lane-wise 256-bit products — low halves Z4, high halves
// Z5, middle terms Z6 — over all four lanes into X4, X5, X6. Clobbers
// Z8-Z10.
#define FOLD \
	VEXTRACTI64X4 $1, Z4, Y8; \
	VEXTRACTI64X4 $1, Z5, Y9; \
	VEXTRACTI64X4 $1, Z6, Y10; \
	VPXORQ Y8, Y4, Y4; \
	VPXORQ Y9, Y5, Y5; \
	VPXORQ Y10, Y6, Y6; \
	VEXTRACTI32X4 $1, Y4, X8; \
	VEXTRACTI32X4 $1, Y5, X9; \
	VEXTRACTI32X4 $1, Y6, X10; \
	VPXORQ X8, X4, X4; \
	VPXORQ X9, X5, X5; \
	VPXORQ X10, X6, X6

// REDUCE reduces the 256-bit product held as X4 (low), X5 (high) and X6
// (middle) modulo the GHASH polynomial into X28 (upper lanes zero).
// Clobbers X4-X7.
#define REDUCE \
	VPSLLDQ $8, X6, X7; \
	VPSRLDQ $8, X6, X6; \
	VPXORQ X7, X4, X4; \
	VPXORQ X6, X5, X5; \
	VPCLMULQDQ $0x01, X4, X27, X7; \
	VPSHUFD $0x4e, X4, X4; \
	VPXORQ X7, X4, X4; \
	VPCLMULQDQ $0x01, X4, X27, X7; \
	VPSHUFD $0x4e, X4, X4; \
	VPTERNLOGQ $0x96, X7, X5, X4; \
	VMOVDQA64 X4, X28

// MUL4 adds the lane-wise products of data register D and power register P
// into the running low (Z4), high (Z5) and middle (Z6) terms. T0-T3 are
// scratch.
#define MUL4(D, P, T0, T1, T2, T3) \
	VPCLMULQDQ $0x00, P, D, T0; \
	VPCLMULQDQ $0x11, P, D, T1; \
	VPCLMULQDQ $0x01, P, D, T2; \
	VPCLMULQDQ $0x10, P, D, T3; \
	VPXORQ T0, Z4, Z4; \
	VPXORQ T1, Z5, Z5; \
	VPTERNLOGQ $0x96, T3, T2, Z6

// START4 is MUL4 into fresh terms.
#define START4(D, P, T) \
	VPCLMULQDQ $0x00, P, D, Z4; \
	VPCLMULQDQ $0x11, P, D, Z5; \
	VPCLMULQDQ $0x01, P, D, Z6; \
	VPCLMULQDQ $0x10, P, D, T; \
	VPXORQ T, Z6, Z6

// LOAD4 loads the 256 bytes at off(SI) into Z0-Z3, raises the running
// exponent maximum Z30 by theirs, and byte-reverses every block.
#define LOAD4(off) \
	VMOVDQU64 off+0(SI), Z0; \
	VMOVDQU64 off+64(SI), Z1; \
	VMOVDQU64 off+128(SI), Z2; \
	VMOVDQU64 off+192(SI), Z3; \
	VPANDQ Z31, Z0, Z8; \
	VPANDQ Z31, Z1, Z9; \
	VPANDQ Z31, Z2, Z10; \
	VPANDQ Z31, Z3, Z11; \
	VPMAXUQ Z8, Z9, Z8; \
	VPMAXUQ Z10, Z11, Z10; \
	VPMAXUQ Z8, Z10, Z8; \
	VPMAXUQ Z8, Z30, Z30; \
	VPSHUFB Z29, Z0, Z0; \
	VPSHUFB Z29, Z1, Z1; \
	VPSHUFB Z29, Z2, Z2; \
	VPSHUFB Z29, Z3, Z3

// func ghashAVX512(acc *[16]byte, pow *[64][16]byte, p unsafe.Pointer, n int) bool
//
// Folds the n/16 blocks at p (n a multiple of 16) into *acc, given pow =
// H^64, ..., H^1, and reports whether every float64 among them is finite.
// The main loop takes 64 blocks per reduction — H^64..H^33 read from pow,
// H^32..H^1 held in Z16-Z23 — and multiplies the accumulator by H^64 on the
// side, so the only chain from one step to the next is one multiply and
// one reduction.
TEXT ·ghashAVX512(SB), NOSPLIT, $0-33
	MOVQ acc+0(FP), AX
	MOVQ pow+8(FP), DI
	MOVQ p+16(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTI32X4 bswapMask<>(SB), Z29
	VPBROADCASTQ    expMask<>(SB), Z31
	VPXORQ          Z30, Z30, Z30       // lane-wise max of the masked exponents
	VMOVDQU64       gcmPoly<>(SB), X27
	VMOVDQU64       (AX), X28           // accumulator, upper lanes zero
	VMOVDQU64       512(DI), Z16        // H^32 .. H^29
	VMOVDQU64       576(DI), Z17
	VMOVDQU64       640(DI), Z18
	VMOVDQU64       704(DI), Z19
	VMOVDQU64       768(DI), Z20
	VMOVDQU64       832(DI), Z21
	VMOVDQU64       896(DI), Z22
	VMOVDQU64       960(DI), Z23        // H^4 .. H^1
	VMOVDQU64       1008(DI), X24       // H^1

blocks64:
	CMPQ CX, $1024
	JB   blocks4
	LOAD4(0)
	START4(Z0, 0(DI), Z7)
	MUL4(Z1, 64(DI), Z8, Z9, Z10, Z11)
	MUL4(Z2, 128(DI), Z12, Z13, Z14, Z15)
	MUL4(Z3, 192(DI), Z8, Z9, Z10, Z11)
	LOAD4(256)
	MUL4(Z0, 256(DI), Z12, Z13, Z14, Z15)
	MUL4(Z1, 320(DI), Z8, Z9, Z10, Z11)
	MUL4(Z2, 384(DI), Z12, Z13, Z14, Z15)
	MUL4(Z3, 448(DI), Z8, Z9, Z10, Z11)
	LOAD4(512)
	MUL4(Z0, Z16, Z12, Z13, Z14, Z15)
	MUL4(Z1, Z17, Z8, Z9, Z10, Z11)
	MUL4(Z2, Z18, Z12, Z13, Z14, Z15)
	MUL4(Z3, Z19, Z8, Z9, Z10, Z11)
	LOAD4(768)
	MUL4(Z0, Z20, Z12, Z13, Z14, Z15)
	MUL4(Z1, Z21, Z8, Z9, Z10, Z11)
	MUL4(Z2, Z22, Z12, Z13, Z14, Z15)
	MUL4(Z3, Z23, Z8, Z9, Z10, Z11)
	FOLD

	// The accumulator's share: (acc · H^64), added last.
	VPCLMULQDQ $0x00, 0(DI), X28, X8
	VPCLMULQDQ $0x11, 0(DI), X28, X9
	VPCLMULQDQ $0x01, 0(DI), X28, X10
	VPCLMULQDQ $0x10, 0(DI), X28, X11
	VPXORQ     X8, X4, X4
	VPXORQ     X9, X5, X5
	VPTERNLOGQ $0x96, X11, X10, X6
	REDUCE

	ADDQ $1024, SI
	SUBQ $1024, CX
	JMP  blocks64

blocks4:
	CMPQ      CX, $64
	JB        blocks1
	VMOVDQU64 (SI), Z0
	VPANDQ    Z31, Z0, Z4
	VPMAXUQ   Z4, Z30, Z30
	VPSHUFB   Z29, Z0, Z0
	VPXORQ    Z28, Z0, Z0

	START4(Z0, Z23, Z7)
	FOLD
	REDUCE

	ADDQ $64, SI
	SUBQ $64, CX
	JMP  blocks4

blocks1:
	CMPQ      CX, $16
	JB        done
	VMOVDQU64 (SI), X0
	VPANDQ    X31, X0, X4               // upper lanes of Z4 zero
	VPMAXUQ   Z4, Z30, Z30
	VPSHUFB   X29, X0, X0
	VPXORQ    X28, X0, X0

	VPCLMULQDQ $0x00, X24, X0, X4
	VPCLMULQDQ $0x11, X24, X0, X5
	VPCLMULQDQ $0x01, X24, X0, X6
	VPCLMULQDQ $0x10, X24, X0, X7
	VPXORQ     X7, X6, X6
	REDUCE

	ADDQ $16, SI
	SUBQ $16, CX
	JMP  blocks1

done:
	VMOVDQU64 X28, (AX)
	VPCMPEQQ  Z31, Z30, K1
	KORTESTW  K1, K1
	SETEQ     ret+32(FP)
	VZEROUPPER
	RET

// func finiteAVX512(p unsafe.Pointer, n int) bool
//
// Reports whether every float64 in the n bytes at p (n a multiple of 64) is
// finite: a value is NaN or Inf exactly when its masked exponent is all
// ones, the largest any masked exponent can be.
TEXT ·finiteAVX512(SB), NOSPLIT, $0-17
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX

	VPBROADCASTQ expMask<>(SB), Z31
	VPXORQ       Z30, Z30, Z30
	VPXORQ       Z29, Z29, Z29

scan4:
	CMPQ    CX, $256
	JB      scan1
	VPANDQ  0(SI), Z31, Z0
	VPANDQ  64(SI), Z31, Z1
	VPANDQ  128(SI), Z31, Z2
	VPANDQ  192(SI), Z31, Z3
	VPMAXUQ Z0, Z30, Z30
	VPMAXUQ Z1, Z29, Z29
	VPMAXUQ Z2, Z30, Z30
	VPMAXUQ Z3, Z29, Z29
	ADDQ    $256, SI
	SUBQ    $256, CX
	JMP     scan4

scan1:
	CMPQ    CX, $64
	JB      scanned
	VPANDQ  (SI), Z31, Z0
	VPMAXUQ Z0, Z30, Z30
	ADDQ    $64, SI
	SUBQ    $64, CX
	JMP     scan1

scanned:
	VPMAXUQ  Z29, Z30, Z30
	VPCMPEQQ Z31, Z30, K1
	KORTESTW K1, K1
	SETEQ    ret+16(FP)
	VZEROUPPER
	RET

// func cpuidHasVPCLMUL512() bool
//
// True when the CPU reports OSXSAVE, AVX512F, AVX512BW, AVX512VL and
// VPCLMULQDQ and the OS has enabled XMM, YMM, opmask and both ZMM state
// components (XCR0 bits 1-2 and 5-7), i.e. both kernels above are safe to
// run.
TEXT ·cpuidHasVPCLMUL512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX                  // OSXSAVE, without which XGETBV faults
	JZ   no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0xc0010000, BX               // AVX512F (16), AVX512BW (30), AVX512VL (31)
	CMPL BX, $0xc0010000
	JNE  no
	ANDL $(1<<10), CX                  // VPCLMULQDQ
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
