package ga_test

import (
	"fmt"
	"math"

	"srumma/ga"
)

// Example shows the Global Arrays workflow: create distributed arrays,
// fill them one-sidedly, multiply with SRUMMA underneath (ga_dgemm), and
// read the result back.
func Example() {
	err := ga.Run(4, 2, false, func(e *ga.Env) {
		a, _ := e.Create("A", 6, 6)
		b, _ := e.Create("B", 6, 6)
		c, _ := e.Create("C", 6, 6)
		if e.Me() == 0 {
			diag := ga.NewMatrix(6, 6)
			for i := 0; i < 6; i++ {
				diag.Set(i, i, 2)
			}
			if err := a.Put(0, 0, diag); err != nil {
				panic(err)
			}
			ones := ga.NewMatrix(6, 6)
			ones.Fill(1)
			if err := b.Put(0, 0, ones); err != nil {
				panic(err)
			}
		}
		e.Sync()
		if err := c.MatMul(false, false, 1, a, b, 0); err != nil {
			panic(err)
		}
		if e.Me() == 0 {
			got, _ := c.Get(2, 3, 1, 1)
			fmt.Println(got.At(0, 0))
		}
		e.Sync()
	})
	if err != nil {
		panic(err)
	}
	// Output: 2
}

// Example_dot computes a distributed dot product with the whole-array ops.
func Example_dot() {
	err := ga.Run(3, 1, false, func(e *ga.Env) {
		x, _ := e.Create("x", 4, 4)
		x.Fill(2)
		d, err := x.Dot(x)
		if err != nil {
			panic(err)
		}
		if e.Me() == 0 {
			fmt.Println(d) // 16 elements * 4
		}
		e.Sync()
	})
	if err != nil {
		panic(err)
	}
	// Output: 64
}

// Example_purification runs McWeeny density-matrix purification,
// P <- 3P² - 2P³ iterated until P is idempotent: the chains of distributed
// multiplications quantum chemistry codes (NWChem) run through ga_dgemm,
// here SRUMMA products with alpha/beta accumulation, one-sided patch access
// and collective synchronization. The trace converges to the number of
// occupied orbitals.
func Example_purification() {
	const n = 192 // orbital count
	err := ga.Run(8, 2, false, func(e *ga.Env) {
		p, _ := e.Create("P", n, n)
		t, _ := e.Create("T", n, n)     // P²
		next, _ := e.Create("P'", n, n) // 3P² - 2P³
		d, _ := e.Create("D", n, n)     // P² - P

		// Rank 0 builds the initial density guess: a symmetric matrix with
		// eigenvalues in (0, 1), biased so a third converge to 1.
		if e.Me() == 0 {
			m := ga.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					v := 0.18 * math.Sin(float64(i*j%17)+1) / (1 + math.Abs(float64(i-j)))
					m.Set(i, j, v)
					m.Set(j, i, v)
				}
				occ := 0.9
				if i%3 != 0 {
					occ = 0.12
				}
				m.Set(i, i, occ)
			}
			must(p.Put(0, 0, m))
		}
		e.Sync()

		for iter := 0; ; iter++ {
			must(t.MatMul(false, false, 1, p, p, 0))
			must(d.Add(1, t, -1, p))
			res, err := d.Norm() // every rank receives the same value
			must(err)
			if e.Me() == 0 {
				pm, _ := p.Get(0, 0, n, n)
				trace := 0.0
				for i := 0; i < n; i++ {
					trace += pm.At(i, i)
				}
				if res >= 1e-9 { // below it the norm is rounding noise
					fmt.Printf("%d: trace(P) %.6f, ||P^2-P|| %.3e\n", iter, trace, res)
				} else {
					fmt.Printf("idempotent after %d steps: trace(P) %.6f\n", iter, trace)
				}
			}
			if res < 1e-9 {
				break
			}
			// P' = 3·P·P - 2·T·P: the second multiply accumulates into the
			// first with beta = 1.
			must(next.MatMul(false, false, 3, p, p, 0))
			must(next.MatMul(false, false, -2, t, p, 1))
			must(p.Copy(next))
		}
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// 0: trace(P) 72.960000, ||P^2-P|| 1.572e+00
	// 1: trace(P) 69.889280, ||P^2-P|| 8.951e-01
	// 2: trace(P) 66.518166, ||P^2-P|| 4.473e-01
	// 3: trace(P) 64.731475, ||P^2-P|| 2.084e-01
	// 4: trace(P) 64.154932, ||P^2-P|| 7.980e-02
	// 5: trace(P) 64.021040, ||P^2-P|| 1.751e-02
	// 6: trace(P) 64.000942, ||P^2-P|| 9.306e-04
	// 7: trace(P) 64.000003, ||P^2-P|| 2.601e-06
	// idempotent after 8 steps: trace(P) 64.000000
}

// Example_conjugateGradient solves an SPD system with conjugate gradient
// built from the whole-array operations: the matrix-vector products run
// SRUMMA on N=1 "matrices" (the planner's degenerate shapes), the dot
// products ride the allreduce, and the vector updates use GA_Add — the
// iterative-solver-around-ga_dgemm composition NWChem-era codes are made of.
func Example_conjugateGradient() {
	const n = 144
	err := ga.Run(6, 2, false, func(e *ga.Env) {
		// The system M = AᵀA + n·I, and b = M·xTrue for a known xTrue.
		a, _ := e.Create("A", n, n)
		at, _ := e.Create("At", n, n)
		m, _ := e.Create("M", n, n)
		if e.Me() == 0 {
			src := ga.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					src.Set(i, j, math.Sin(float64(i*13+j*7))*0.4)
				}
			}
			must(a.Put(0, 0, src))
		}
		e.Sync()
		must(at.Transpose(a))
		must(m.MatMul(false, false, 1, at, a, 0))
		if e.Me() == 0 {
			eye := ga.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				eye.Set(i, i, float64(n))
			}
			must(m.Acc(0, 0, 1, eye))
		}
		e.Sync()

		xTrue, _ := e.Create("xTrue", n, 1)
		b, _ := e.Create("b", n, 1)
		if e.Me() == 0 {
			v := ga.NewMatrix(n, 1)
			for i := 0; i < n; i++ {
				v.Set(i, 0, 1+math.Cos(float64(i))/2)
			}
			must(xTrue.Put(0, 0, v))
		}
		e.Sync()
		must(b.MatMul(false, false, 1, m, xTrue, 0))

		// x0 = 0, r = b, p = r.
		x, _ := e.Create("x", n, 1)
		r, _ := e.Create("r", n, 1)
		p, _ := e.Create("p", n, 1)
		mp, _ := e.Create("Mp", n, 1)
		x.Fill(0)
		must(r.Copy(b))
		must(p.Copy(r))
		rr, _ := r.Dot(r)
		iter := 0
		for ; iter < 40 && rr > 1e-20; iter++ {
			must(mp.MatMul(false, false, 1, m, p, 0)) // Mp = M p  (SRUMMA)
			pmp, _ := p.Dot(mp)
			alpha := rr / pmp
			must(x.Add(1, x, alpha, p))   // x += alpha p
			must(r.Add(1, r, -alpha, mp)) // r -= alpha Mp
			rrNew, _ := r.Dot(r)
			if e.Me() == 0 {
				// Below 1e-8 the residual is rounding noise: print its bound.
				if res := math.Sqrt(rrNew); res >= 1e-8 {
					fmt.Printf("%d: ||r|| %.3e\n", iter, res)
				} else {
					fmt.Printf("%d: ||r|| < 1e-8\n", iter)
				}
			}
			must(p.Add(rrNew/rr, p, 1, r)) // p = r + beta p
			rr = rrNew
		}
		diff, _ := e.Create("diff", n, 1)
		must(diff.Add(1, x, -1, xTrue))
		errNorm, _ := diff.Norm()
		if e.Me() == 0 {
			fmt.Printf("converged in %d iterations: ||x - xTrue|| < 1e-8 %v\n", iter, errNorm < 1e-8)
		}
		e.Sync()
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// 0: ||r|| 1.322e+03
	// 1: ||r|| 7.381e+00
	// 2: ||r|| < 1e-8
	// converged in 3 iterations: ||x - xTrue|| < 1e-8 true
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
