package mat

// The register-tiled micro-kernel layer: one mr x nr tile of C updated by a
// length-kc sequence of rank-1 updates read from packed panels (pack.go).
// Per k step a kernel loads mr + nr values and performs mr*nr multiply-adds,
// versus one load-add-store per multiply-add in an axpy-style inner loop —
// the arithmetic-to-memory ratio is what buys the speedup. C itself is read
// and written exactly once per (tile, k-panel) pair.
//
// Every kernel obeys one rule: ONE accumulator per C element, started at
// zero, updated in increasing l across the kc panel, then added into C
// once. The vector kernels do each update as a fused multiply-add, so the
// AVX2 and AVX-512 kernels compute every C element with the identical
// sequence of roundings — their results are bitwise equal whatever their
// tile shapes, and a run that mixes hosts of both ISAs stays bit-identical
// to the serial kernel on either. (The scalar kernel multiplies and adds
// separately where the compiler does not fuse, so it agrees within k·u.)

// kernel is one entry of the micro-kernel table: a register tile shape and
// the code (selected by isa in the per-architecture run method) that
// updates a full tile.
type kernel struct {
	name   string
	mr, nr int
	isa    int
}

const (
	isaScalar = iota
	isaAVX2
	isaAVX512
)

// maxTile bounds mr*nr over the table; it sizes the edge scratch tile.
const maxTile = 8 * 16

// scalarKernel is the portable entry, first in every table.
var scalarKernel = kernel{name: "scalar 4x4", mr: 4, nr: 8, isa: isaScalar}

// kernels lists what this machine can run, best last; active is the one
// Gemm dispatches to, chosen once at init. Tests swap active to drive every
// supported kernel.
var (
	kernels = supportedKernels()
	active  = &kernels[len(kernels)-1]
)

// tile accumulates the product of two packed micro-panels into the rows x
// cols live part of the mr x nr tile at c (leading dimension ldc):
//
//	C[r, j] += sum_l ap[l*mr+r] * bp[l*nr+j]   r < rows, j < cols
//
// alpha is already folded into ap and padded lanes are zero. A full tile
// runs the kernel straight on C. An edge tile runs the same kernel on a
// stack scratch tile holding the live part of C, so there is no separate
// edge arithmetic: C[i,j] does not depend on where tile boundaries fall.
func (k *kernel) tile(kc int, ap, bp, c []float64, ldc, rows, cols int) {
	if rows == k.mr && cols == k.nr {
		k.run(kc, ap, bp, c, ldc)
		return
	}
	var scratch [maxTile]float64
	nr := k.nr
	for r := 0; r < rows; r++ {
		copy(scratch[r*nr:r*nr+cols], c[r*ldc:])
	}
	k.run(kc, ap, bp, scratch[:], nr)
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+cols], scratch[r*nr:])
	}
}

// scalarKernel4x8 is the portable full-tile kernel. It works the 4x8 tile
// as two 4x4 halves so its sixteen accumulators have a chance of staying in
// registers.
func scalarKernel4x8(kc int, ap, bp, c []float64, ldc int) {
	scalarKernel4x4(kc, ap, bp, c, ldc)
	scalarKernel4x4(kc, ap, bp[4:], c[4:], ldc)
}

// scalarKernel4x4 is one 4x4 half of the scalar tile: sixteen accumulators
// over the packed panels, reading four columns of each 8-wide packed B row.
func scalarKernel4x4(kc int, ap, bp, c []float64, ldc int) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
	)
	ap = ap[:kc*4]
	bp = bp[:(kc-1)*8+4]
	for {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		if len(ap) <= 4 {
			break
		}
		ap = ap[4:]
		bp = bp[8:]
	}
	r0 := c[0*ldc : 0*ldc+4]
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1 := c[1*ldc : 1*ldc+4]
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
	r2 := c[2*ldc : 2*ldc+4]
	r2[0] += c20
	r2[1] += c21
	r2[2] += c22
	r2[3] += c23
	r3 := c[3*ldc : 3*ldc+4]
	r3[0] += c30
	r3[1] += c31
	r3[2] += c32
	r3[3] += c33
}
