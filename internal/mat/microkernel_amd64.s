// Vector micro-kernels for the packed gemm hierarchy (see microkernel.go).
// Each holds one mr x nr tile of C in accumulator registers — one
// accumulator lane per C element — while the k loop streams the packed
// panels: per k step, nr/lanes vector loads of B and mr broadcasts of A
// feed mr*nr/lanes fused multiply-adds; then the tile is added into C, or
// with store (the first k-panel of a beta-0 product) stored as acc + (+0)
// without reading C. The k loop is unrolled without splitting
// accumulators, so both kernels round every C element identically (see
// the rule in microkernel.go).
//
//	fmaKernel4x8    AVX2+FMA, 8 YMM accumulators (4 rows of 2)
//	zmmKernel8x16   AVX-512F, 16 ZMM accumulators (8 rows of 2)
//
// Each is dispatched only after its cpuidHas* gate reports the instructions
// and OS support for the register state. packRowsAVX2 and packTransAVX2 are
// the two directions of panel packing (pack.go) for both vector kernels.

#include "textflag.h"

// func fmaKernel4x8(kc int, ap, bp, c *float64, ldc int, store bool)
//
// C[r*ldc+j] += sum_l ap[l*4+r] * bp[l*8+j]  for r < 4, j < 8; with store,
// C[r*ldc+j] = sum_l ap[l*4+r] * bp[l*8+j] + 0.
TEXT ·fmaKernel4x8(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX            // row stride in bytes

	VXORPD Y0, Y0, Y0      // row 0, cols 0-3
	VXORPD Y1, Y1, Y1      // row 0, cols 4-7
	VXORPD Y2, Y2, Y2      // row 1
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4      // row 2
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6      // row 3
	VXORPD Y7, Y7, Y7

	// Two k steps per iteration while possible.
	MOVQ CX, R9
	SHRQ $1, R9
	JZ   tail

loop2:
	VMOVUPD (BX), Y8       // b[0:4]
	VMOVUPD 32(BX), Y9     // b[4:8]
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD 16(SI), Y10
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 24(SI), Y11
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7

	VMOVUPD 64(BX), Y12    // next k step
	VMOVUPD 96(BX), Y13
	VBROADCASTSD 32(SI), Y10
	VBROADCASTSD 40(SI), Y11
	VFMADD231PD Y12, Y10, Y0
	VFMADD231PD Y13, Y10, Y1
	VBROADCASTSD 48(SI), Y10
	VFMADD231PD Y12, Y11, Y2
	VFMADD231PD Y13, Y11, Y3
	VBROADCASTSD 56(SI), Y11
	VFMADD231PD Y12, Y10, Y4
	VFMADD231PD Y13, Y10, Y5
	VFMADD231PD Y12, Y11, Y6
	VFMADD231PD Y13, Y11, Y7

	ADDQ $64, SI
	ADDQ $128, BX
	DECQ R9
	JNZ  loop2

tail:
	ANDQ $1, CX
	JZ   writeback

	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD 16(SI), Y10
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 24(SI), Y11
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7

writeback:
	CMPB store+40(FP), $0
	JNE  storeback
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ DX, DI
	VADDPD (DI), Y2, Y2
	VADDPD 32(DI), Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ DX, DI
	VADDPD (DI), Y4, Y4
	VADDPD 32(DI), Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ DX, DI
	VADDPD (DI), Y6, Y6
	VADDPD 32(DI), Y7, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

	// acc + (+0) in the operand order of the adds above.
storeback:
	VXORPD Y8, Y8, Y8
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ DX, DI
	VADDPD Y8, Y2, Y2
	VADDPD Y8, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ DX, DI
	VADDPD Y8, Y4, Y4
	VADDPD Y8, Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ DX, DI
	VADDPD Y8, Y6, Y6
	VADDPD Y8, Y7, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// One k step of the 8x16 tile: B row at boff(BX), A column at aoff(SI).
#define KSTEP8x16(aoff, boff) \
	VMOVUPD boff(BX), Z16; \
	VMOVUPD (boff+64)(BX), Z17; \
	VBROADCASTSD (aoff+0)(SI), Z18; \
	VBROADCASTSD (aoff+8)(SI), Z19; \
	VFMADD231PD Z16, Z18, Z0; \
	VFMADD231PD Z17, Z18, Z1; \
	VBROADCASTSD (aoff+16)(SI), Z18; \
	VFMADD231PD Z16, Z19, Z2; \
	VFMADD231PD Z17, Z19, Z3; \
	VBROADCASTSD (aoff+24)(SI), Z19; \
	VFMADD231PD Z16, Z18, Z4; \
	VFMADD231PD Z17, Z18, Z5; \
	VBROADCASTSD (aoff+32)(SI), Z18; \
	VFMADD231PD Z16, Z19, Z6; \
	VFMADD231PD Z17, Z19, Z7; \
	VBROADCASTSD (aoff+40)(SI), Z19; \
	VFMADD231PD Z16, Z18, Z8; \
	VFMADD231PD Z17, Z18, Z9; \
	VBROADCASTSD (aoff+48)(SI), Z18; \
	VFMADD231PD Z16, Z19, Z10; \
	VFMADD231PD Z17, Z19, Z11; \
	VBROADCASTSD (aoff+56)(SI), Z19; \
	VFMADD231PD Z16, Z18, Z12; \
	VFMADD231PD Z17, Z18, Z13; \
	VFMADD231PD Z16, Z19, Z14; \
	VFMADD231PD Z17, Z19, Z15

// Add one accumulator row into the C row at DI and step DI to the next.
#define ADDROW8x16(lo, hi) \
	VADDPD (DI), lo, lo; \
	VADDPD 64(DI), hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 64(DI); \
	ADDQ DX, DI

// Store one accumulator row plus the +0 in Z16 to the C row at DI and step
// DI to the next.
#define STOREROW8x16(lo, hi) \
	VADDPD Z16, lo, lo; \
	VADDPD Z16, hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 64(DI); \
	ADDQ DX, DI

// Pull the C row at R8 towards L1 while the k loop runs; step R8.
#define PREFETCHROW8x16 \
	PREFETCHT0 (R8); \
	PREFETCHT0 120(R8); \
	ADDQ DX, R8

// func zmmKernel8x16(kc int, ap, bp, c *float64, ldc int, store bool)
//
// C[r*ldc+j] += sum_l ap[l*8+r] * bp[l*16+j]  for r < 8, j < 16; with store,
// C[r*ldc+j] = sum_l ap[l*8+r] * bp[l*16+j] + 0.
TEXT ·zmmKernel8x16(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX            // row stride in bytes

	MOVQ DI, R8
	PREFETCHROW8x16
	PREFETCHROW8x16
	PREFETCHROW8x16
	PREFETCHROW8x16
	PREFETCHROW8x16
	PREFETCHROW8x16
	PREFETCHROW8x16
	PREFETCHROW8x16

	VPXORQ Z0, Z0, Z0      // row 0, cols 0-7
	VPXORQ Z1, Z1, Z1      // row 0, cols 8-15
	VPXORQ Z2, Z2, Z2      // row 1
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14   // row 7
	VPXORQ Z15, Z15, Z15

	// Two k steps per iteration while possible.
	MOVQ CX, R9
	SHRQ $1, R9
	JZ   tail512

loop512:
	KSTEP8x16(0, 0)
	KSTEP8x16(64, 128)
	ADDQ $128, SI
	ADDQ $256, BX
	DECQ R9
	JNZ  loop512

tail512:
	ANDQ $1, CX
	JZ   writeback512
	KSTEP8x16(0, 0)

writeback512:
	CMPB store+40(FP), $0
	JNE  storeback512
	ADDROW8x16(Z0, Z1)
	ADDROW8x16(Z2, Z3)
	ADDROW8x16(Z4, Z5)
	ADDROW8x16(Z6, Z7)
	ADDROW8x16(Z8, Z9)
	ADDROW8x16(Z10, Z11)
	ADDROW8x16(Z12, Z13)
	ADDROW8x16(Z14, Z15)
	VZEROUPPER
	RET

storeback512:
	VPXORQ Z16, Z16, Z16
	STOREROW8x16(Z0, Z1)
	STOREROW8x16(Z2, Z3)
	STOREROW8x16(Z4, Z5)
	STOREROW8x16(Z6, Z7)
	STOREROW8x16(Z8, Z9)
	STOREROW8x16(Z10, Z11)
	STOREROW8x16(Z12, Z13)
	STOREROW8x16(Z14, Z15)
	VZEROUPPER
	RET

// func packRowsAVX2(d *float64, w int, s *float64, ld, kc int, scale float64)
//
// d[l*w+i] = scale * s[l*ld+i]  for l < kc, i < w; w a multiple of 4.
TEXT ·packRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ w+8(FP), R8
	MOVQ s+16(FP), SI
	MOVQ ld+24(FP), DX
	MOVQ kc+32(FP), CX
	VBROADCASTSD scale+40(FP), Y15
	SHLQ $3, R8            // bytes per d row
	SHLQ $3, DX            // bytes per s row

rows:
	XORQ AX, AX
cols:
	VMULPD (SI)(AX*1), Y15, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R8
	JLT  cols
	ADDQ DX, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  rows
	VZEROUPPER
	RET

// func packTransAVX2(d *float64, w int, s *float64, ld, kc int, scale float64)
//
// d[l*w+i] = scale * s[i*ld+l]  for l < kc, i < 4: four streams of s, ld
// apart, transposed 4x4 blocks at a time into four columns of d.
TEXT ·packTransAVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ w+8(FP), R8
	MOVQ s+16(FP), SI
	MOVQ ld+24(FP), DX
	MOVQ kc+32(FP), CX
	VBROADCASTSD scale+40(FP), Y15
	SHLQ $3, R8            // bytes per d row
	SHLQ $3, DX            // bytes between streams
	LEAQ (SI)(DX*2), R9    // streams 0,1 at SI, SI+DX; 2,3 at R9, R9+DX

	MOVQ CX, R10
	SHRQ $2, R10
	JZ   tailT

blockT:
	VMOVUPD (SI), Y0       // stream i, elements l..l+3
	VMOVUPD (SI)(DX*1), Y1
	VMOVUPD (R9), Y2
	VMOVUPD (R9)(DX*1), Y3
	VUNPCKLPD Y1, Y0, Y4   // s0[l] s1[l] s0[l+2] s1[l+2]
	VUNPCKHPD Y1, Y0, Y5   // s0[l+1] s1[l+1] s0[l+3] s1[l+3]
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0   // row l
	VPERM2F128 $0x20, Y7, Y5, Y1   // row l+1
	VPERM2F128 $0x31, Y6, Y4, Y2   // row l+2
	VPERM2F128 $0x31, Y7, Y5, Y3   // row l+3
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	LEAQ (DI)(R8*2), R11
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, (R11)(R8*1)
	LEAQ (R11)(R8*2), DI
	ADDQ $32, SI
	ADDQ $32, R9
	DECQ R10
	JNZ  blockT

tailT:
	ANDQ $3, CX
	JZ   doneT
oneT:
	VMOVSD (SI), X0
	VMOVSD (SI)(DX*1), X1
	VMOVSD (R9), X2
	VMOVSD (R9)(DX*1), X3
	VMULSD X15, X0, X0
	VMULSD X15, X1, X1
	VMULSD X15, X2, X2
	VMULSD X15, X3, X3
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ R8, DI
	DECQ CX
	JNZ  oneT
doneT:
	VZEROUPPER
	RET

// func cpuidHasAVX2FMA() bool
//
// True when the CPU reports FMA, AVX and AVX2 and the OS has enabled
// XMM+YMM state saving (XCR0 bits 1-2), i.e. fmaKernel4x8 is safe to run.
TEXT ·cpuidHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8  // FMA, OSXSAVE, AVX
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX                        // XMM and YMM state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX                   // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func cpuidHasAVX512F() bool
//
// True when the CPU reports AVX512F and the OS has enabled XMM, YMM, opmask
// and both ZMM state components (XCR0 bits 1-2 and 5-7), i.e. zmmKernel8x16
// is safe to run. Call only after cpuidHasAVX2FMA passed: that is what
// checks OSXSAVE, without which XGETBV faults.
TEXT ·cpuidHasAVX512F(SB), NOSPLIT, $0-1
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX                  // AVX512F
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET
