package bench

// The seed kernel: the cache-blocked axpy/dot dgemm this repository started
// with, kept only as the baseline KernelSweep times the packed kernel
// (mat.Gemm) against.

import "srumma/internal/mat"

// Block sizes for gemmBlocked. Chosen so an (mc x kc) panel of A plus a
// (kc x nc) panel of B fit comfortably in a typical L2 cache.
const (
	blockM = 64
	blockN = 256
	blockK = 64
)

// gemmBlocked computes C = alpha*op(A)*op(B) + C: cache blocked but
// unpacked, with axpy/dot inner loops (and a strided walk in the TT case).
// The caller guarantees conforming shapes.
func gemmBlocked(transA, transB bool, alpha float64, a, b, c *mat.Matrix) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if transA {
		k = a.Rows
	}
	// Blocked outer loops shared by all four variants; the inner kernels
	// operate on views so they never see the blocking.
	for i0 := 0; i0 < m; i0 += blockM {
		ib := min(blockM, m-i0)
		for l0 := 0; l0 < k; l0 += blockK {
			lb := min(blockK, k-l0)
			for j0 := 0; j0 < n; j0 += blockN {
				jb := min(blockN, n-j0)
				cBlk := c.View(i0, j0, ib, jb)
				switch {
				case !transA && !transB:
					gemmNN(alpha, a.View(i0, l0, ib, lb), b.View(l0, j0, lb, jb), cBlk)
				case transA && !transB:
					gemmTN(alpha, a.View(l0, i0, lb, ib), b.View(l0, j0, lb, jb), cBlk)
				case !transA && transB:
					gemmNT(alpha, a.View(i0, l0, ib, lb), b.View(j0, l0, jb, lb), cBlk)
				default:
					gemmTT(alpha, a.View(l0, i0, lb, ib), b.View(j0, l0, jb, lb), cBlk)
				}
			}
		}
	}
}

// gemmNN: C(ib x jb) += alpha * A(ib x lb) * B(lb x jb).
// Inner loop streams rows of B and C (axpy form).
func gemmNN(alpha float64, a, b, c *mat.Matrix) {
	for i := 0; i < a.Rows; i++ {
		aRow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		cRow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for l, av := range aRow {
			s := alpha * av
			if s == 0 {
				continue
			}
			bRow := b.Data[l*b.Stride : l*b.Stride+b.Cols]
			axpy(s, bRow, cRow)
		}
	}
}

// gemmTN: C(ib x jb) += alpha * A(lb x ib)ᵀ * B(lb x jb).
// Outer loop over l keeps row l of both A and B contiguous.
func gemmTN(alpha float64, a, b, c *mat.Matrix) {
	for l := 0; l < a.Rows; l++ {
		aRow := a.Data[l*a.Stride : l*a.Stride+a.Cols]
		bRow := b.Data[l*b.Stride : l*b.Stride+b.Cols]
		for i, av := range aRow {
			s := alpha * av
			if s == 0 {
				continue
			}
			cRow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
			axpy(s, bRow, cRow)
		}
	}
}

// gemmNT: C(ib x jb) += alpha * A(ib x lb) * B(jb x lb)ᵀ.
// Dot-product form: rows of A and rows of B are both contiguous.
func gemmNT(alpha float64, a, b, c *mat.Matrix) {
	for i := 0; i < a.Rows; i++ {
		aRow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		cRow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for j := 0; j < b.Rows; j++ {
			bRow := b.Data[j*b.Stride : j*b.Stride+b.Cols]
			cRow[j] += alpha * dot(aRow, bRow)
		}
	}
}

// gemmTT: C(ib x jb) += alpha * A(lb x ib)ᵀ * B(jb x lb)ᵀ.
// Loop over l outermost keeps row l of A contiguous; B is read by column of
// the transposed operand, i.e. strided (the packed kernel avoids this by
// resolving the transpose at pack time).
func gemmTT(alpha float64, a, b, c *mat.Matrix) {
	for l := 0; l < a.Rows; l++ {
		aRow := a.Data[l*a.Stride : l*a.Stride+a.Cols]
		for j := 0; j < b.Rows; j++ {
			s := alpha * b.Data[j*b.Stride+l]
			if s == 0 {
				continue
			}
			for i, av := range aRow {
				c.Data[i*c.Stride+j] += s * av
			}
		}
	}
}

// axpy computes y += s*x over equal-length slices, unrolled by four to give
// the compiler room to keep values in registers.
func axpy(s float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += s * x[i]
		y[i+1] += s * x[i+1]
		y[i+2] += s * x[i+2]
		y[i+3] += s * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += s * x[i]
	}
}

// dot returns the inner product of equal-length slices.
func dot(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}
