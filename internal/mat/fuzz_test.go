package mat

import "testing"

// FuzzGemmMatchesNaive cross-checks the packed kernel against the naive
// triple loop for fuzzer-chosen shapes, transposes and scalars. Run with
// `go test -fuzz=FuzzGemmMatchesNaive ./internal/mat` to explore; the seed
// corpus executes on every normal `go test`.
func FuzzGemmMatchesNaive(f *testing.F) {
	f.Add(uint8(4), uint8(5), uint8(6), uint8(0), int16(10), int16(-5), uint16(1))
	f.Add(uint8(64), uint8(64), uint8(64), uint8(3), int16(100), int16(0), uint16(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), int16(0), int16(7), uint16(3))
	f.Add(uint8(65), uint8(63), uint8(66), uint8(2), int16(-3), int16(12), uint16(4))
	// One off either side of whole register tiles (m = 1+mm, n = 1+nn):
	// q*mr±1 rows and q*nr±1 columns for the 4x8 and 8x16 kernels.
	f.Add(uint8(6), uint8(14), uint8(30), uint8(0), int16(16), int16(0), uint16(5))   // 7 x 15
	f.Add(uint8(8), uint8(16), uint8(31), uint8(1), int16(16), int16(16), uint16(6))  // 9 x 17
	f.Add(uint8(30), uint8(32), uint8(8), uint8(2), int16(-8), int16(4), uint16(7))   // 31 x 33
	f.Add(uint8(32), uint8(30), uint8(9), uint8(3), int16(24), int16(-16), uint16(8)) // 33 x 31
	f.Add(uint8(2), uint8(6), uint8(2), uint8(3), int16(16), int16(16), uint16(9))    // 3 x 7
	f.Add(uint8(4), uint8(8), uint8(4), uint8(0), int16(16), int16(0), uint16(10))    // 5 x 9
	f.Fuzz(func(t *testing.T, mm, nn, kk, cs uint8, alphaMil, betaMil int16, seed uint16) {
		m := 1 + int(mm%80)
		n := 1 + int(nn%80)
		k := 1 + int(kk%80)
		transA := cs&1 != 0
		transB := cs&2 != 0
		alpha := float64(alphaMil) / 16
		beta := float64(betaMil) / 16
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		a := Random(ar, ac, uint64(seed))
		b := Random(br, bc, uint64(seed)+1)
		c1 := Random(m, n, uint64(seed)+2)
		c2 := c1.Clone()
		if err := Gemm(transA, transB, alpha, a, b, beta, c1); err != nil {
			t.Fatal(err)
		}
		if err := GemmNaive(transA, transB, alpha, a, b, beta, c2); err != nil {
			t.Fatal(err)
		}
		tol := 1e-10 * float64(k) * (1 + absF(alpha)) * 4
		if d := MaxAbsDiff(c1, c2); d > tol {
			t.Fatalf("m=%d n=%d k=%d tA=%v tB=%v alpha=%g beta=%g: diff %g",
				m, n, k, transA, transB, alpha, beta, d)
		}
	})
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// FuzzPackTransposeRoundTrip checks UnpackTransposeFrom against an
// elementwise reference.
func FuzzPackTransposeRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint16(9))
	f.Add(uint8(1), uint8(1), uint16(0))
	f.Add(uint8(8), uint8(2), uint16(77))
	// One off either side of the register-tile edges 4 and 8 (r = 1+rr).
	f.Add(uint8(2), uint8(4), uint16(3))  // 3 x 5
	f.Add(uint8(6), uint8(8), uint16(4))  // 7 x 9
	f.Add(uint8(8), uint8(6), uint16(5))  // 9 x 7
	f.Add(uint8(10), uint8(2), uint16(6)) // 11 x 3
	f.Fuzz(func(t *testing.T, rr, cc uint8, seed uint16) {
		r := 1 + int(rr%12)
		c := 1 + int(cc%12)
		src := Random(c, r, uint64(seed)) // the packed (c x r) block
		dst := New(r+2, c+2)
		UnpackTransposeFrom(dst, src.Data, 1, 1, r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if dst.At(1+i, 1+j) != src.At(j, i) {
					t.Fatalf("(%d,%d) = %v, want %v", i, j, dst.At(1+i, 1+j), src.At(j, i))
				}
			}
		}
		// Border untouched.
		if dst.At(0, 0) != 0 || dst.At(r+1, c+1) != 0 {
			t.Fatal("transpose unpack leaked outside target")
		}
	})
}
