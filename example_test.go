package srumma_test

import (
	"fmt"
	"math"

	"srumma"
)

// ExampleCluster_Multiply multiplies two matrices with SRUMMA on the real
// engine: eight SPMD goroutine processes, two per shared-memory node (the
// shape of the paper's Linux cluster). The result is spot-checked against
// serial dot products, and the report splits the one-sided traffic into
// shared-memory copies and remote gets — exact counts, fixed by the plan. A
// node-mate's block is read in place (the zero-copy shared-memory path), so
// no shared-memory bytes move.
func ExampleCluster_Multiply() {
	cl, err := srumma.NewCluster(8, 2, false)
	if err != nil {
		panic(err)
	}
	p, q := cl.GridShape()
	fmt.Printf("%d processes on a %dx%d grid\n", cl.Procs(), p, q)

	const n = 512
	a := srumma.RandomMatrix(n, n, 1)
	b := srumma.RandomMatrix(n, n, 2)
	c, rep, err := cl.Multiply(a, b, srumma.MultiplyOptions{})
	if err != nil {
		panic(err)
	}
	for _, ij := range [][2]int{{0, 0}, {n / 2, n / 3}, {n - 1, n - 1}} {
		i, j := ij[0], ij[1]
		var want float64
		for k := 0; k < n; k++ {
			want += a.At(i, k) * b.At(k, j)
		}
		if diff := math.Abs(c.At(i, j) - want); diff > 1e-9 {
			fmt.Printf("C(%d,%d) = %g, want %g\n", i, j, c.At(i, j), want)
		}
	}
	fmt.Printf("verified; %d B shared-memory, %d B remote\n", rep.BytesShared, rep.BytesRemote)
	// Output:
	// 8 processes on a 2x4 grid
	// verified; 0 B shared-memory, 6291456 B remote
}

// ExampleCluster_Multiply_transpose runs the four dgemm transpose cases and
// three rectangular shapes (the paper's Table 1 territory, scaled down) on
// six processes, checking one full row of each C with explicit index
// arithmetic: in C = op(A) op(B), a transposed operand is stored the other
// way round.
func ExampleCluster_Multiply_transpose() {
	cl, err := srumma.NewCluster(6, 2, false)
	if err != nil {
		panic(err)
	}
	for _, r := range []struct {
		cs      srumma.Case
		m, n, k int
	}{
		{srumma.NN, 240, 240, 240},
		{srumma.TN, 240, 240, 240},
		{srumma.NT, 240, 240, 240},
		{srumma.TT, 240, 240, 240},
		{srumma.NN, 400, 400, 100}, // Table 1: m=4000 n=4000 k=1000, scaled
		{srumma.NN, 100, 100, 200}, // Table 1: m=1000 n=1000 k=2000, scaled
		{srumma.TT, 60, 300, 150},
	} {
		ar, ac := r.m, r.k
		if r.cs.TransA() {
			ar, ac = r.k, r.m
		}
		br, bc := r.k, r.n
		if r.cs.TransB() {
			br, bc = r.n, r.k
		}
		a := srumma.RandomMatrix(ar, ac, 11)
		b := srumma.RandomMatrix(br, bc, 22)
		c, rep, err := cl.Multiply(a, b, srumma.MultiplyOptions{Case: r.cs})
		if err != nil {
			panic(err)
		}
		i := r.m / 2
		for j := 0; j < r.n; j++ {
			var want float64
			for l := 0; l < r.k; l++ {
				var av, bv float64
				if r.cs.TransA() {
					av = a.At(l, i)
				} else {
					av = a.At(i, l)
				}
				if r.cs.TransB() {
					bv = b.At(j, l)
				} else {
					bv = b.At(l, j)
				}
				want += av * bv
			}
			if diff := math.Abs(c.At(i, j) - want); diff > 1e-9 {
				fmt.Printf("%v: C(%d,%d) = %g, want %g\n", r.cs, i, j, c.At(i, j), want)
			}
		}
		fmt.Printf("%v m=%d n=%d k=%d: verified; %d B shared-memory, %d B remote\n",
			r.cs, r.m, r.n, r.k, rep.BytesShared, rep.BytesRemote)
	}
	// Output:
	// C=AB m=240 n=240 k=240: verified; 0 B shared-memory, 921600 B remote
	// C=AtB m=240 n=240 k=240: verified; 0 B shared-memory, 921600 B remote
	// C=ABt m=240 n=240 k=240: verified; 0 B shared-memory, 1536000 B remote
	// C=AtBt m=240 n=240 k=240: verified; 0 B shared-memory, 1536000 B remote
	// C=AB m=400 n=400 k=100: verified; 0 B shared-memory, 640000 B remote
	// C=AB m=100 n=100 k=200: verified; 0 B shared-memory, 320000 B remote
	// C=AtBt m=60 n=300 k=150: verified; 0 B shared-memory, 624000 B remote
}

// ExampleSimulate reproduces one point of the paper's evaluation: SRUMMA vs
// the pdgemm baseline on the modeled SGI Altix.
func ExampleSimulate() {
	d := srumma.Dims{M: 1000, N: 1000, K: 1000}
	sr, err := srumma.Simulate(srumma.SimOptions{Platform: "sgi-altix", Procs: 64, Dims: d})
	if err != nil {
		panic(err)
	}
	pd, err := srumma.Simulate(srumma.SimOptions{
		Platform: "sgi-altix", Procs: 64, Dims: d, Algorithm: srumma.AlgPdgemm,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(sr.GFLOPS > 2*pd.GFLOPS)
	// Output: true
}
