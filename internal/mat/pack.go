package mat

// Panel packing for the BLIS-style gemm hierarchy (see microkernel.go for
// the register tile and gemm.go for the macro loops). The kernel never
// touches the operands in their stored layout: before any flops run, the
// current mc x kc slab of op(A) and kc x nc slab of op(B) are copied into
// contiguous buffers arranged exactly in the order the micro-kernel
// consumes them. Packing is where the four transpose variants are resolved
// — every variant has a contiguous direction to read along — and where
// alpha is folded into A, so the micro-kernel does pure multiply-accumulate.
//
// The pack buffers come from the buffer pool (pool.go) and are sized to the
// product, not to the blocks: a 64³ product packs into two 64x64 buffers,
// not a 128x256 and a 256x512 panel.
//
// Both operands pack through one routine. A slab of op(B) is kc x nc cut
// into micro-panels of nr columns; a slab of op(A) is mc x kc cut into
// micro-panels of mr rows, which is the same layout applied to op(A)ᵀ. So
// packing A is packing "B = Aᵀ" with width mr and scale alpha.

// Macro-tile blocking. An A panel is mc x kc, a B panel is kc x nc (streamed
// through once per A panel); the register tile is the active kernel's
// mr x nr. mc and nc are multiples of every table entry's mr and nr, so
// only the final micro-panel of a slab can be partial. kc is one value for
// all kernels: it fixes where the k-panel boundaries (the only boundaries
// the rounding of C depends on) fall.
const (
	mcBlock = 128
	kcBlock = 256
	ncBlock = 512
)

// packSizes returns the elements of the A and B pack buffers an m x n x k
// product needs: its largest slab of each, the last micro-panel padded to
// the tile.
func packSizes(kern *kernel, m, n, k int) (a, b int) {
	kc := min(k, kcBlock)
	return roundUp(min(m, mcBlock), kern.mr) * kc, roundUp(min(n, ncBlock), kern.nr) * kc
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// packPanels copies the kc x n slab X[l, j] (l < kc, j < n) of an operand,
// scaled, into dst as micro-panels of w columns in row order:
//
//	dst[(j/w)*w*kc + l*w + j%w] = scale * X[l, j]
//
// with the columns past n in the last micro-panel zero, so the micro-kernel
// always runs a full tile. X[l, j] is src[l0+l, j0+j], or src[j0+j, l0+l]
// when trans; either way dst is written front to back, one w-vector per l.
// w is kern's mr or nr.
func packPanels(kern *kernel, dst []float64, src *Matrix, trans bool, scale float64, w, l0, j0, kc, n int) {
	// X[l, j] = s[l*sl + j*sj].
	s, sl, sj := src.Data, src.Stride, 1
	if trans {
		sl, sj = 1, src.Stride
	}
	s = s[l0*sl+j0*sj:]
	for q := 0; q*w < n; q++ {
		d := dst[q*w*kc : (q+1)*w*kc]
		from := s[q*w*sj:]
		if cols := n - q*w; cols < w {
			for l := 0; l < kc; l++ {
				row := d[l*w : l*w+w]
				for c := 0; c < cols; c++ {
					row[c] = scale * from[l*sl+c*sj]
				}
				clear(row[cols:])
			}
			break
		}
		kern.packPanel(d, w, from, sl, sj, kc, scale)
	}
}

// packPanelGo is the portable packPanel: one full micro-panel,
// d[l*w+i] = scale * s[l*sl+i*sj] for l < kc, i < w (w a multiple of 4),
// four columns per pass.
func packPanelGo(d []float64, w int, s []float64, sl, sj, kc int, scale float64) {
	for g := 0; g < w; g += 4 {
		for l := 0; l < kc; l++ {
			v := (*[4]float64)(d[l*w+g:])
			x := s[l*sl+g*sj : l*sl+(g+3)*sj+1]
			v[0] = scale * x[0]
			v[1] = scale * x[sj]
			v[2] = scale * x[2*sj]
			v[3] = scale * x[3*sj]
		}
	}
}
