package mat

import (
	"math"
	"testing"
	"time"
)

// forEachKernel runs fn once per micro-kernel this machine supports, with
// that kernel made the active one (the unexported hook the kernel table
// exists to serve), and restores the init-time choice afterwards.
func forEachKernel(t *testing.T, fn func(t *testing.T, k *kernel)) {
	saved := active
	defer func() { active = saved }()
	for i := range kernels {
		active = &kernels[i]
		t.Run(active.name, func(t *testing.T) { fn(t, active) })
	}
}

// absMatrix returns |m| elementwise, tightly strided.
func absMatrix(m *Matrix) *Matrix {
	out := m.Clone()
	for i, v := range out.Data {
		out.Data[i] = math.Abs(v)
	}
	return out
}

// bitsEqual reports whether a and b hold identical float64 bit patterns.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.Data[i*a.Stride+j]) != math.Float64bits(b.Data[i*b.Stride+j]) {
				return false
			}
		}
	}
	return true
}

// TestEveryKernelEveryEdge drives each supported kernel through every tile
// remainder — m in 1..2mr+1, n in 1..2nr+1 — in all four transpose cases,
// with k below, at and across the kc panel boundary, on strided views and on
// dense copies of them. The reference is one GemmNaive product of the
// largest shape: element (i,j) of a product does not depend on m or n. The
// bound is the textbook one for two different summation orders, 2·γ(k) on
// Σ|a||b| + |c| with γ(k) ≈ k·u.
func TestEveryKernelEveryEdge(t *testing.T) {
	const u = 0x1p-53
	forEachKernel(t, func(t *testing.T, kern *kernel) {
		if kern.mr*kern.nr > maxTile || mcBlock%kern.mr != 0 || ncBlock%kern.nr != 0 {
			t.Fatalf("tile %dx%d does not fit maxTile %d or divide mc %d / nc %d", kern.mr, kern.nr, maxTile, mcBlock, ncBlock)
		}
		maxM, maxN := 2*kern.mr+1, 2*kern.nr+1
		for _, tc := range gemmCases {
			for _, k := range []int{1, 2, kcBlock - 1, kcBlock, kcBlock + 1} {
				ar, ac := opShape(tc.transA, maxM, k)
				br, bc := opShape(tc.transB, k, maxN)
				a, b, c0 := Random(ar, ac, 71), Random(br, bc, 72), Random(maxM, maxN, 73)
				ref, mag, full := c0.Clone(), absMatrix(c0), c0.Clone()
				if err := GemmNaive(tc.transA, tc.transB, 1, a, b, 1, ref); err != nil {
					t.Fatal(err)
				}
				if err := GemmNaive(tc.transA, tc.transB, 1, absMatrix(a), absMatrix(b), 1, mag); err != nil {
					t.Fatal(err)
				}
				tol := 2 * float64(k+2) * u
				for m := 1; m <= maxM; m++ {
					for n := 1; n <= maxN; n++ {
						ar, ac := opShape(tc.transA, m, k)
						br, bc := opShape(tc.transB, k, n)
						av, bv := a.View(0, 0, ar, ac), b.View(0, 0, br, bc)
						for _, dense := range []bool{false, true} {
							copy(full.Data, c0.Data)
							c := full.View(0, 0, m, n)
							if dense {
								av, bv, c = av.Clone(), bv.Clone(), c.Clone()
							}
							if err := Gemm(tc.transA, tc.transB, 1, av, bv, 1, c); err != nil {
								t.Fatal(err)
							}
							for i := 0; i < m; i++ {
								for j := 0; j < n; j++ {
									got, want := c.At(i, j), ref.At(i, j)
									if math.Abs(got-want) > tol*mag.At(i, j) {
										t.Fatalf("%s m=%d n=%d k=%d dense=%v: C[%d,%d] = %v, want %v (bound %g)",
											tc.name, m, n, k, dense, i, j, got, want, tol*mag.At(i, j))
									}
								}
							}
							// Nothing outside the m x n window may move.
							for i := 0; !dense && i < maxM; i++ {
								for j := 0; j < maxN; j++ {
									if (i >= m || j >= n) && full.At(i, j) != c0.At(i, j) {
										t.Fatalf("%s m=%d n=%d k=%d: Gemm wrote C[%d,%d], outside its view", tc.name, m, n, k, i, j)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestGemmPositionIndependent: Gemm on a ragged window of A, B and C gives,
// bit for bit, the matching window of Gemm on the whole, for the same k. An
// element's value depends on the kc panel boundaries only — never on which
// tile it lands in or whether that tile is an edge.
func TestGemmPositionIndependent(t *testing.T) {
	forEachKernel(t, func(t *testing.T, kern *kernel) {
		m, n, k := 5*kern.mr+3, 4*kern.nr+5, kcBlock+37
		i0, j0 := kern.mr+1, kern.nr-3
		wm, wn := 2*kern.mr+3, 2*kern.nr-1
		for _, tc := range gemmCases {
			ar, ac := opShape(tc.transA, m, k)
			br, bc := opShape(tc.transB, k, n)
			a, b, c0 := Random(ar, ac, 81), Random(br, bc, 82), Random(m, n, 83)
			whole := c0.Clone()
			if err := Gemm(tc.transA, tc.transB, 1.5, a, b, 0.5, whole); err != nil {
				t.Fatal(err)
			}
			// The window of op(A) is rows [i0, i0+wm); of op(B), columns
			// [j0, j0+wn); both keep all of k.
			window := func(x *Matrix, trans bool, r0, c0, r, c int) *Matrix {
				if trans {
					return x.View(c0, r0, c, r)
				}
				return x.View(r0, c0, r, c)
			}
			aw := window(a, tc.transA, i0, 0, wm, k)
			bw := window(b, tc.transB, 0, j0, k, wn)
			part := c0.Clone().View(i0, j0, wm, wn)
			if err := Gemm(tc.transA, tc.transB, 1.5, aw, bw, 0.5, part); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(part, whole.View(i0, j0, wm, wn)) {
				t.Errorf("%s: window product differs from the window of the whole product", tc.name)
			}
		}
	})
}

// TestVectorKernelsBitIdentical: the AVX2 and AVX-512 kernels round every
// element identically (one accumulator, fused multiply-adds in increasing l,
// one add into C), so their products are bitwise equal although their tiles
// differ. Needs a machine that passes both gates.
func TestVectorKernelsBitIdentical(t *testing.T) {
	var vec []*kernel
	for i := range kernels {
		if kernels[i].isa != isaScalar {
			vec = append(vec, &kernels[i])
		}
	}
	if len(vec) < 2 {
		t.Skipf("one vector kernel or none on this machine (%s)", KernelName())
	}
	saved := active
	defer func() { active = saved }()
	shapes := []struct{ m, n, k int }{{1, 1, 1}, {7, 17, 3}, {61, 47, 300}, {131, 257, 513}, {255, 129, 766}}
	for _, tc := range gemmCases {
		for si, sh := range shapes {
			ar, ac := opShape(tc.transA, sh.m, sh.k)
			br, bc := opShape(tc.transB, sh.k, sh.n)
			a, b := Random(ar, ac, uint64(90+si)), Random(br, bc, uint64(190+si))
			c0 := Random(sh.m, sh.n, uint64(290+si))
			var first *Matrix
			for _, kern := range vec {
				active = kern
				c := c0.Clone()
				if err := Gemm(tc.transA, tc.transB, -0.75, a, b, 1.25, c); err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = c
				} else if !bitsEqual(first, c) {
					t.Errorf("%s %v: %s and %s differ", tc.name, sh, vec[0].name, kern.name)
				}
			}
		}
	}
}

// TestRaggedShapeKeepsRate guards against an edge cliff: a shape one short
// of whole tiles in every dimension (the executor's task shape on a prime
// problem) must run at no less than 0.85 of the rate of the whole-tile
// shape next to it, in every transpose case. Rates are from the fastest of
// interleaved repetitions, and a case that misses gets more repetitions
// before it fails, so a busy machine slows the test down, not the verdict.
func TestRaggedShapeKeepsRate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	forEachKernel(t, func(t *testing.T, kern *kernel) {
		if kern.isa == isaScalar && len(kernels) > 1 {
			t.Skip("same macro loops as the vector kernels, ten times the run time")
		}
		raggedShapeKeepsRate(t)
	})
}

func raggedShapeKeepsRate(t *testing.T) {
	type shape struct{ m, n, k int }
	whole, ragged := shape{512, 256, 768}, shape{511, 255, 766}
	for _, tc := range gemmCases {
		operands := func(s shape) (a, b, c *Matrix) {
			ar, ac := opShape(tc.transA, s.m, s.k)
			br, bc := opShape(tc.transB, s.k, s.n)
			return Random(ar, ac, 1), Random(br, bc, 2), New(s.m, s.n)
		}
		wa, wb, wc := operands(whole)
		ra, rb, rc := operands(ragged)
		once := func(a, b, c *Matrix) float64 {
			t0 := time.Now()
			if err := Gemm(tc.transA, tc.transB, 1, a, b, 0, c); err != nil {
				t.Fatal(err)
			}
			return time.Since(t0).Seconds()
		}
		rate := func(s shape, sec float64) float64 {
			return 2 * float64(s.m) * float64(s.n) * float64(s.k) / sec / 1e9
		}
		bestW, bestR := math.Inf(1), math.Inf(1)
		var wRate, rRate float64
		for rep := 0; rep < 40; rep++ {
			bestW = min(bestW, once(wa, wb, wc))
			bestR = min(bestR, once(ra, rb, rc))
			wRate, rRate = rate(whole, bestW), rate(ragged, bestR)
			if rep >= 4 && rRate >= 0.85*wRate {
				break
			}
		}
		t.Logf("%s: whole %.1f GFLOP/s, ragged %.1f GFLOP/s (%.2f)", tc.name, wRate, rRate, rRate/wRate)
		if rRate < 0.85*wRate {
			t.Errorf("%s: ragged %dx%dx%d runs at %.1f GFLOP/s, under 0.85 of %.1f at %dx%dx%d",
				tc.name, ragged.m, ragged.n, ragged.k, rRate, wRate, whole.m, whole.n, whole.k)
		}
	}
}

// TestSmallPackBuffersChangeNothing: a product with every extent at most
// smallDim packs into smallDim² buffers, a larger one into full panels. At
// the boundary the choice must not show: the top-left window of a product
// one past smallDim (full panels), recomputed on its own at smallDim and
// just below (small buffers), is the same bit for bit.
func TestSmallPackBuffersChangeNothing(t *testing.T) {
	if a, b := packPools(smallDim, smallDim, smallDim); a != &smallPanelPool || b != &smallPanelPool {
		t.Fatal("a smallDim³ product does not use the small pack buffers")
	}
	for _, ext := range [][3]int{{smallDim + 1, 1, 1}, {1, smallDim + 1, 1}, {1, 1, smallDim + 1}} {
		if a, b := packPools(ext[0], ext[1], ext[2]); a != &aPanelPool || b != &bPanelPool {
			t.Fatalf("a %v product does not use full panels", ext)
		}
	}
	forEachKernel(t, func(t *testing.T, kern *kernel) {
		if smallDim%kern.mr != 0 || smallDim%kern.nr != 0 {
			t.Fatalf("smallDim %d is not a multiple of the %dx%d tile", smallDim, kern.mr, kern.nr)
		}
		big := smallDim + 1
		for _, k := range []int{smallDim - 1, smallDim} {
			for _, tc := range gemmCases {
				ar, ac := opShape(tc.transA, big, k)
				br, bc := opShape(tc.transB, k, big)
				a, b, c0 := Random(ar, ac, 91), Random(br, bc, 92), Random(big, big, 93)
				whole := c0.Clone()
				if err := Gemm(tc.transA, tc.transB, 1.5, a, b, 0.5, whole); err != nil {
					t.Fatal(err)
				}
				for _, mn := range [][2]int{{smallDim, smallDim}, {smallDim - 1, smallDim}, {smallDim, smallDim - 3}} {
					m, n := mn[0], mn[1]
					ar, ac := opShape(tc.transA, m, k)
					br, bc := opShape(tc.transB, k, n)
					part := c0.Clone().View(0, 0, m, n)
					if err := Gemm(tc.transA, tc.transB, 1.5, a.View(0, 0, ar, ac), b.View(0, 0, br, bc), 0.5, part); err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(part, whole.View(0, 0, m, n)) {
						t.Errorf("%s %dx%dx%d: small-buffer product differs from the window of the full-panel one", tc.name, m, n, k)
					}
				}
			}
		}
	})
}
