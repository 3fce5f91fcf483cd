package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestGemmPackedProperty drives the packed kernel through randomized
// shapes, non-trivial strides (interior views of larger parents), all four
// transpose combinations and the alpha/beta edge cases, comparing against
// the naive triple loop every time.
func TestGemmPackedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphas := []float64{0, 1, -1, 0.75, -2.5}
	betas := []float64{0, 1, -1, 2}
	for iter := 0; iter < 250; iter++ {
		m := 1 + rng.Intn(150)
		n := 1 + rng.Intn(150)
		k := 1 + rng.Intn(150)
		transA := rng.Intn(2) == 1
		transB := rng.Intn(2) == 1
		alpha := alphas[rng.Intn(len(alphas))]
		beta := betas[rng.Intn(len(betas))]

		ar, ac := opShape(transA, m, k)
		br, bc := opShape(transB, k, n)
		// Operands as interior views: stride > cols, data offset != 0.
		pa := Random(ar+3, ac+5, uint64(iter)*3+1)
		pb := Random(br+2, bc+4, uint64(iter)*3+2)
		pc := Random(m+4, n+3, uint64(iter)*3+3)
		a := pa.View(1, 2, ar, ac)
		b := pb.View(2, 1, br, bc)
		c1 := pc.View(3, 2, m, n)
		c2 := c1.Clone()

		if err := Gemm(transA, transB, alpha, a, b, beta, c1); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := GemmNaive(transA, transB, alpha, a.Clone(), b.Clone(), beta, c2); err != nil {
			t.Fatalf("iter %d naive: %v", iter, err)
		}
		tol := 1e-12 * float64(k) * (1 + absF(alpha)) * 16
		if d := MaxAbsDiff(c1.Clone(), c2); d > tol {
			t.Fatalf("iter %d m=%d n=%d k=%d tA=%v tB=%v alpha=%g beta=%g: diff %g > %g",
				iter, m, n, k, transA, transB, alpha, beta, d, tol)
		}
	}
}

// TestGemmParallelMatchesSerial checks the goroutine-parallel kernel
// against the serial packed kernel. The stripe split preserves per-element
// summation order, so the comparison is exact. Run under -race this also
// proves the workers share no mutable state. GemmParallel never starts more
// workers than GOMAXPROCS, so that is raised for the larger stripe counts to
// exist on a small machine.
func TestGemmParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	shapes := []struct{ m, n, k int }{
		{64, 64, 64},    // below the parallel threshold: serial fallback
		{97, 201, 130},  // wide C, odd edges
		{310, 75, 96},   // tall C
		{256, 256, 256}, // square, above threshold
		{513, 129, 257}, // macro-block edges everywhere
	}
	for _, tc := range gemmCases {
		for _, sh := range shapes {
			for _, threads := range []int{2, 3, 4, 8} {
				ar, ac := opShape(tc.transA, sh.m, sh.k)
				br, bc := opShape(tc.transB, sh.k, sh.n)
				a := Random(ar, ac, 11)
				b := Random(br, bc, 12)
				c1 := Random(sh.m, sh.n, 13)
				c2 := c1.Clone()
				if err := Gemm(tc.transA, tc.transB, 1.5, a, b, -0.25, c1); err != nil {
					t.Fatal(err)
				}
				if err := GemmParallel(threads, tc.transA, tc.transB, 1.5, a, b, -0.25, c2); err != nil {
					t.Fatal(err)
				}
				if d := MaxAbsDiff(c1, c2); d != 0 {
					t.Fatalf("%s %v threads=%d: parallel differs from serial by %g",
						tc.name, sh, threads, d)
				}
			}
		}
	}
}

// TestGemmParallelShapeErrors: the parallel front end must validate shapes
// identically to the serial one.
func TestGemmParallelShapeErrors(t *testing.T) {
	a := New(3, 4)
	b := New(5, 6)
	c := New(3, 6)
	if err := GemmParallel(4, false, false, 1, a, b, 0, c); err != ErrShape {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

// TestGemmSteadyStateNoAlloc: after warm-up, serial packed Gemm calls must
// not allocate — the pack panels come from pools, and the scratch tile of
// the edge tiles (the shape is ragged for every kernel) stays on the stack.
// This is the kernel's share of the zero-alloc Multiply hot path.
func TestGemmSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	a := Random(157, 96, 1)
	b := Random(141, 96, 2) // stored n x k: consumed via transB
	c := New(157, 141)
	run := func() {
		if err := Gemm(false, true, 1.5, a, b, 0.5, c); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady-state Gemm allocates %.1f objects per call, want 0", avg)
	}
}

// BenchmarkGemm reports GFLOP/s for the packed kernel, serial and parallel.
// The parallel variant asks for 4 workers and gets min(4, GOMAXPROCS).
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := Random(n, n, 1)
		bb := Random(n, n, 2)
		c := New(n, n)
		flops := 2 * float64(n) * float64(n) * float64(n)
		report := func(b *testing.B) {
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		}
		b.Run(sizeName(n)+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Gemm(false, false, 1, a, bb, 0, c); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(sizeName(n)+"/parallel4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := GemmParallel(4, false, false, 1, a, bb, 0, c); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 256:
		return "256"
	case 512:
		return "512"
	case 1024:
		return "1024"
	}
	return "other"
}

// BenchmarkGemmParallelScaling pins the thread sweep at 512 so speedup over
// serial is a single comparison. On a single-core host the parallel numbers
// track serial; the scaling claim needs GOMAXPROCS >= threads.
func BenchmarkGemmParallelScaling(b *testing.B) {
	n := 512
	a := Random(n, n, 1)
	bb := Random(n, n, 2)
	c := New(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		b.Run(threadName(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := GemmParallel(threads, false, false, 1, a, bb, 0, c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

func threadName(t int) string {
	return map[int]string{1: "t1", 2: "t2", 4: "t4", 8: "t8"}[t]
}
