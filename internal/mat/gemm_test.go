package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// gemmCase enumerates the four transpose variants.
var gemmCases = []struct {
	name           string
	transA, transB bool
}{
	{"NN", false, false},
	{"TN", true, false},
	{"NT", false, true},
	{"TT", true, true},
}

// opShape returns the storage shape for an operand that must present an
// r x c matrix after op.
func opShape(trans bool, r, c int) (int, int) {
	if trans {
		return c, r
	}
	return r, c
}

func TestGemmMatchesNaive(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 3, 3}, {5, 7, 4}, {64, 64, 64}, {65, 63, 66},
		{1, 100, 1}, {100, 1, 100}, {130, 70, 90},
	}
	for _, tc := range gemmCases {
		for _, sh := range shapes {
			ar, ac := opShape(tc.transA, sh.m, sh.k)
			br, bc := opShape(tc.transB, sh.k, sh.n)
			a := Random(ar, ac, 1)
			b := Random(br, bc, 2)
			c1 := Random(sh.m, sh.n, 3)
			c2 := c1.Clone()
			if err := Gemm(tc.transA, tc.transB, 1.25, a, b, -0.5, c1); err != nil {
				t.Fatalf("%s %v: %v", tc.name, sh, err)
			}
			if err := GemmNaive(tc.transA, tc.transB, 1.25, a, b, -0.5, c2); err != nil {
				t.Fatalf("%s naive %v: %v", tc.name, sh, err)
			}
			if d := MaxAbsDiff(c1, c2); d > 1e-10*float64(sh.k) {
				t.Errorf("%s m=%d n=%d k=%d: max diff %g", tc.name, sh.m, sh.n, sh.k, d)
			}
		}
	}
}

func TestGemmShapeErrors(t *testing.T) {
	a := New(3, 4)
	b := New(5, 6) // inner dims mismatch
	c := New(3, 6)
	if err := Gemm(false, false, 1, a, b, 0, c); err != ErrShape {
		t.Fatalf("want ErrShape, got %v", err)
	}
	b2 := New(4, 6)
	cBad := New(2, 6)
	if err := Gemm(false, false, 1, a, b2, 0, cBad); err != ErrShape {
		t.Fatalf("want ErrShape for bad C rows, got %v", err)
	}
	cBad2 := New(3, 5)
	if err := Gemm(false, false, 1, a, b2, 0, cBad2); err != ErrShape {
		t.Fatalf("want ErrShape for bad C cols, got %v", err)
	}
}

// TestGemmBetaZeroOverwritesNaN: beta = 0 never reads C (BLAS's rule), and
// the kernel's store of the first k-panel keeps the bits of adding into a
// cleared C. On every kernel, serial and parallel, in all four transpose
// cases, at shapes one off the tile edges and with k across two kc panels,
// beta 0 into a C of NaN or -Inf bit-equals beta 1 into a C of +0. A panel
// whose sum underflows to -0 lands as +0.
func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	shapes := []struct{ m, n, k int }{{7, 15, 3}, {9, 17, 600}, {33, 31, 600}, {33, 31, 2*kcBlock + 1}}
	forEachKernel(t, func(t *testing.T, _ *kernel) {
		for _, threads := range []int{1, 2} {
			for _, tc := range gemmCases {
				for _, sh := range shapes {
					ar, ac := opShape(tc.transA, sh.m, sh.k)
					br, bc := opShape(tc.transB, sh.k, sh.n)
					a, b := Random(ar, ac, 11), Random(br, bc, 12)
					what := fmt.Sprintf("threads %d %s %dx%dx%d", threads, tc.name, sh.m, sh.n, sh.k)
					gemm := func(alpha, beta float64, c *Matrix) {
						var err error
						if threads == 1 {
							err = Gemm(tc.transA, tc.transB, alpha, a, b, beta, c)
						} else {
							err = GemmParallel(threads, tc.transA, tc.transB, alpha, a, b, beta, c)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					// check computes beta 0 into poison and beta 1 into +0.
					check := func(alpha, poison float64) *Matrix {
						got, want := New(sh.m, sh.n), New(sh.m, sh.n)
						got.Fill(poison)
						gemm(alpha, 0, got)
						gemm(alpha, 1, want)
						if !bitsEqual(got, want) {
							t.Fatalf("%s: beta 0 into %v differs from beta 1 into +0", what, poison)
						}
						return got
					}
					check(1.5, math.NaN())
					check(1.5, math.Inf(-1))
					// Every product underflows to -0; the store must give +0.
					a.Fill(-1e-200)
					b.Fill(1e-200)
					for i, v := range check(1, math.NaN()).Data {
						if math.Float64bits(v) != 0 {
							t.Fatalf("%s underflow: C[%d] = %v, want +0", what, i, v)
						}
					}
				}
			}
		}
	})
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	a := Random(4, 4, 1)
	b := Random(4, 4, 2)
	c := Indexed(4, 4)
	want := c.Clone()
	for i := range want.Data {
		want.Data[i] *= 2
	}
	if err := Gemm(false, false, 0, a, b, 2, c); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(c, want) != 0 {
		t.Fatal("alpha=0 did not reduce to C *= beta")
	}
}

func TestGemmBetaOnePreservesC(t *testing.T) {
	a := New(4, 4) // zero A, so C must be unchanged
	b := Random(4, 4, 2)
	c := Indexed(4, 4)
	want := c.Clone()
	if err := Gemm(false, false, 1, a, b, 1, c); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(c, want) != 0 {
		t.Fatal("beta=1 with zero product modified C")
	}
}

func TestGemmOnViews(t *testing.T) {
	// Operate on interior views of larger matrices; padding must be intact.
	bigA := Random(10, 10, 4)
	bigB := Random(10, 10, 5)
	bigC := Random(10, 10, 6)
	sentinel := bigC.Clone()
	a := bigA.View(1, 1, 5, 4)
	b := bigB.View(2, 2, 4, 6)
	c := bigC.View(3, 3, 5, 6)
	ref := New(5, 6)
	if err := GemmNaive(false, false, 1, a.Clone(), b.Clone(), 0, ref); err != nil {
		t.Fatal(err)
	}
	if err := Gemm(false, false, 1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(c.Clone(), ref); d > 1e-12 {
		t.Fatalf("view gemm wrong: %g", d)
	}
	// First row and column of bigC are outside the view.
	for j := 0; j < 10; j++ {
		if bigC.At(0, j) != sentinel.At(0, j) || bigC.At(j%10, 0) != sentinel.At(j%10, 0) {
			t.Fatal("gemm wrote outside the C view")
		}
	}
}

func TestGemmQuickAllCases(t *testing.T) {
	for _, tc := range gemmCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed uint64, mm, nn, kk uint8) bool {
				m := 1 + int(mm%12)
				n := 1 + int(nn%12)
				k := 1 + int(kk%12)
				ar, ac := opShape(tc.transA, m, k)
				br, bc := opShape(tc.transB, k, n)
				a := Random(ar, ac, seed)
				b := Random(br, bc, seed+1)
				c1 := Random(m, n, seed+2)
				c2 := c1.Clone()
				if Gemm(tc.transA, tc.transB, 0.5, a, b, 1.5, c1) != nil {
					return false
				}
				if GemmNaive(tc.transA, tc.transB, 0.5, a, b, 1.5, c2) != nil {
					return false
				}
				return MaxAbsDiff(c1, c2) <= 1e-10
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGemmZeroDimensions(t *testing.T) {
	// m=0, n=0 or k=0 must be a no-op beyond beta scaling.
	a := New(0, 5)
	b := New(5, 4)
	c := New(0, 4)
	if err := Gemm(false, false, 1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	a2 := New(3, 0)
	b2 := New(0, 4)
	c2 := Indexed(3, 4)
	if err := Gemm(false, false, 1, a2, b2, 0, c2); err != nil {
		t.Fatal(err)
	}
	for _, v := range c2.Data {
		if v != 0 {
			t.Fatal("k=0 with beta=0 should zero C")
		}
	}
}

func BenchmarkGemmNN256(b *testing.B) {
	a := Random(256, 256, 1)
	bb := Random(256, 256, 2)
	c := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Gemm(false, false, 1, a, bb, 0, c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(2 * 256 * 256 * 256 * 8 / 8)) // flop count as "bytes" proxy
}

func BenchmarkGemmTN256(b *testing.B) {
	a := Random(256, 256, 1)
	bb := Random(256, 256, 2)
	c := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Gemm(true, false, 1, a, bb, 0, c); err != nil {
			b.Fatal(err)
		}
	}
}
