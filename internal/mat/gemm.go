package mat

// This file implements the serial dgemm kernel:
//
//	C = alpha*op(A)*op(B) + beta*C
//
// with op(X) = X or Xᵀ, as a BLIS-style packed hierarchy: Go macro loops
// around a register-tile micro-kernel chosen for the CPU. The paper uses
// vendor dgemm (ESSL/MKL/SCS/libsci); this is our substitution.
//
// Structure (outer to inner):
//
//	for jc (nc)           B column slabs
//	  for pc (kc)         contraction panels: pack op(B) slab
//	    for ic (mc)       A row slabs: pack alpha*op(A) slab
//	      for jr (nr)     B micro-panels (stay in L1)
//	        for ir (mr)   A micro-panels (stream from L2)
//	          micro-kernel tile (microkernel.go)
//
// Packing resolves all four transpose variants into one contiguous layout
// (pack.go), so there is no strided inner loop anywhere. The pack buffers
// come from the buffer pool (pool.go), so steady-state calls allocate
// nothing.

// gemmShape derives (m, n, k) from the stored operand shapes and checks
// conformance against C.
func gemmShape(transA, transB bool, a, b, c *Matrix) (m, n, k int, err error) {
	m, k = a.Rows, a.Cols
	if transA {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = b.Cols, b.Rows
	}
	if k != kb || c.Rows != m || c.Cols != n {
		return 0, 0, 0, ErrShape
	}
	return m, n, k, nil
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op is controlled by
// transA and transB. Shapes after op must satisfy op(A): m x k,
// op(B): k x n, C: m x n; otherwise ErrShape is returned and C is not
// touched. With beta 0, C is never read (BLAS's rule): NaN or Inf there
// does not reach the result.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) error {
	m, n, k, err := gemmShape(transA, transB, a, b, c)
	if err != nil {
		return err
	}
	store := stores(alpha, beta, m, n, k)
	if !store {
		scaleC(beta, c)
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return nil
	}
	gemmPacked(transA, transB, alpha, a, b, c, 0, m, 0, n, k, store)
	return nil
}

// stores reports whether a product's first k-panel stores into C instead
// of adding into a C that scaleC cleared: beta is 0 and there is a product
// to store. The degenerate cases clear C through scaleC.
func stores(alpha, beta float64, m, n, k int) bool {
	return beta == 0 && alpha != 0 && m > 0 && n > 0 && k > 0
}

// gemmPacked runs the packed macro loops over the C sub-range
// [i0, i0+m) x [j0, j0+n) with full contraction length k. beta has already
// been applied, or, with store, the pc == 0 panel stores and C is never
// read; alpha is folded into the A panels. The range form is what
// GemmParallel partitions across workers — disjoint C ranges share nothing
// but the read-only operands.
func gemmPacked(transA, transB bool, alpha float64, a, b, c *Matrix, i0, m, j0, n, k int, store bool) {
	kern := active
	mr, nr := kern.mr, kern.nr
	aElems, bElems := packSizes(kern, m, n, k)
	apBuf, bpBuf := GetBuf(aElems), GetBuf(bElems)
	ap, bp := apBuf.Data, bpBuf.Data
	for jc := 0; jc < n; jc += ncBlock {
		ncEff := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			kcEff := min(kcBlock, k-pc)
			packPanels(kern, bp, b, transB, 1, nr, pc, j0+jc, kcEff, ncEff)
			for ic := 0; ic < m; ic += mcBlock {
				mcEff := min(mcBlock, m-ic)
				packPanels(kern, ap, a, !transA, alpha, mr, pc, i0+ic, kcEff, mcEff)
				for q := 0; q*nr < ncEff; q++ {
					cols := min(nr, ncEff-q*nr)
					bPanel := bp[q*nr*kcEff:]
					for p := 0; p*mr < mcEff; p++ {
						rows := min(mr, mcEff-p*mr)
						cOff := (i0+ic+p*mr)*c.Stride + j0 + jc + q*nr
						kern.tile(kcEff, ap[p*mr*kcEff:], bPanel, c.Data[cOff:], c.Stride, rows, cols, store && pc == 0)
					}
				}
			}
		}
	}
	PutBuf(apBuf)
	PutBuf(bpBuf)
}

func scaleC(beta float64, c *Matrix) {
	switch beta {
	case 1:
		return
	case 0:
		c.Zero()
	default:
		for i := 0; i < c.Rows; i++ {
			row := c.Data[i*c.Stride : i*c.Stride+c.Cols]
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// GemmNaive is the reference triple loop used only by tests to validate the
// packed kernel. C = alpha*op(A)*op(B) + beta*C.
func GemmNaive(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) error {
	m, k := a.Rows, a.Cols
	if transA {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = b.Cols, b.Rows
	}
	if k != kb || c.Rows != m || c.Cols != n {
		return ErrShape
	}
	at := func(i, l int) float64 {
		if transA {
			return a.Data[l*a.Stride+i]
		}
		return a.Data[i*a.Stride+l]
	}
	bt := func(l, j int) float64 {
		if transB {
			return b.Data[j*b.Stride+l]
		}
		return b.Data[l*b.Stride+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c.Data[i*c.Stride+j] = alpha*s + beta*c.Data[i*c.Stride+j]
		}
	}
	return nil
}
