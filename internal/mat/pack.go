package mat

// Panel packing for the BLIS-style gemm hierarchy (see microkernel.go for
// the register tile and gemm.go for the macro loops). The kernel never
// touches the operands in their stored layout: before any flops run, the
// current mc x kc slab of op(A) and kc x nc slab of op(B) are copied into
// contiguous pooled buffers arranged exactly in the order the micro-kernel
// consumes them. Packing is where the four transpose variants are resolved
// — every variant has a contiguous direction to read along — and where
// alpha is folded into A, so the micro-kernel does pure multiply-accumulate.
//
// Both operands pack through one routine. A slab of op(B) is kc x nc cut
// into micro-panels of nr columns; a slab of op(A) is mc x kc cut into
// micro-panels of mr rows, which is the same layout applied to op(A)ᵀ. So
// packing A is packing "B = Aᵀ" with width mr and scale alpha.

import "sync"

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

	aPanelElems = mcBlock * kcBlock
	bPanelElems = kcBlock * ncBlock
)

// Pack buffers are uniform per pool, so a sync.Pool per capacity keeps
// steady-state Gemm calls allocation-free. A product with m, n and k all at
// most smallDim packs both its slabs into smallDim² buffers instead of full
// panels — neither slab outgrows one, smallDim being a multiple of every
// kernel's mr and nr, so micro-panel padding stays inside. A server
// computing many such products at once, one per processor, then keeps
// 256 KB of pack space warm per product in flight, not the 1.25 MB a
// 512-column slab needs.
const smallDim = 128

var (
	aPanelPool     = sync.Pool{New: func() any { b := make([]float64, aPanelElems); return &b }}
	bPanelPool     = sync.Pool{New: func() any { b := make([]float64, bPanelElems); return &b }}
	smallPanelPool = sync.Pool{New: func() any { b := make([]float64, smallDim*smallDim); return &b }}
)

// packPools returns the pools a product of the given extent takes its A and
// B pack buffers from.
func packPools(m, n, k int) (a, b *sync.Pool) {
	if max(m, n, k) <= smallDim {
		return &smallPanelPool, &smallPanelPool
	}
	return &aPanelPool, &bPanelPool
}

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
