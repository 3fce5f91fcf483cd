// Peak-FMA probes for the kernel sweep's share-of-peak column: twelve
// independent accumulator registers fed register-to-register fused
// multiply-adds and nothing else, so the loop retires FMAs at whatever rate
// the core's vector units sustain. No memory traffic, no dependence shorter
// than twelve instructions.

#include "textflag.h"

// func fmaLoop256(iters int)  — 12 four-lane FMAs per iteration.
TEXT ·fmaLoop256(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
loop:
	VFMADD231PD Y12, Y13, Y0
	VFMADD231PD Y12, Y13, Y1
	VFMADD231PD Y12, Y13, Y2
	VFMADD231PD Y12, Y13, Y3
	VFMADD231PD Y12, Y13, Y4
	VFMADD231PD Y12, Y13, Y5
	VFMADD231PD Y12, Y13, Y6
	VFMADD231PD Y12, Y13, Y7
	VFMADD231PD Y12, Y13, Y8
	VFMADD231PD Y12, Y13, Y9
	VFMADD231PD Y12, Y13, Y10
	VFMADD231PD Y12, Y13, Y11
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func fmaLoop512(iters int)  — 12 eight-lane FMAs per iteration.
TEXT ·fmaLoop512(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
loop:
	VFMADD231PD Z12, Z13, Z0
	VFMADD231PD Z12, Z13, Z1
	VFMADD231PD Z12, Z13, Z2
	VFMADD231PD Z12, Z13, Z3
	VFMADD231PD Z12, Z13, Z4
	VFMADD231PD Z12, Z13, Z5
	VFMADD231PD Z12, Z13, Z6
	VFMADD231PD Z12, Z13, Z7
	VFMADD231PD Z12, Z13, Z8
	VFMADD231PD Z12, Z13, Z9
	VFMADD231PD Z12, Z13, Z10
	VFMADD231PD Z12, Z13, Z11
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET
