package main

import (
	"time"

	"srumma"
	"srumma/internal/mat"
)

// Layer probe: internal/mat. Pins mat.Gemm, mat.New, mat.KernelName.

func kernelName() string { return mat.KernelName() }

// serialGemm is the plain single-threaded reference product op(a)·op(b) — the
// kernel every engine must match bit for bit.
func serialGemm(cs srumma.Case, a, b *srumma.Matrix, m, n int) (*srumma.Matrix, error) {
	return serialGemmInto(cs, a, b, 0, mat.New(m, n))
}

// serialGemmInto computes c = op(a)·op(b) + beta·c with the serial kernel.
func serialGemmInto(cs srumma.Case, a, b *srumma.Matrix, beta float64, c *srumma.Matrix) (*srumma.Matrix, error) {
	return c, mat.Gemm(cs.TransA(), cs.TransB(), 1, a, b, beta, c)
}

// gemmSeconds is the median wall time of reps serial mat.Gemm calls at g,
// after one untimed call that warms the pack buffers.
func gemmSeconds(g gemm, reps int) (float64, error) {
	ar, ac, br, bc := g.stored()
	a, b, c := mat.Random(ar, ac, 11), mat.Random(br, bc, 12), mat.New(g.m, g.n)
	times := make([]float64, 0, reps)
	for i := range reps + 1 {
		t0 := time.Now()
		if err := mat.Gemm(g.cs.TransA(), g.cs.TransB(), 1, a, b, 0, c); err != nil {
			return 0, err
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	return median(times), nil
}

// taskShape is the per-task product the executor hands the kernel when shape g
// runs on a p x q grid with k split q ways (SRUMMA's owner-computes blocks).
func taskShape(g gemm, p, q int) gemm {
	up := func(n, parts int) int { return (n + parts - 1) / parts }
	return gemm{g.cs, up(g.m, p), up(g.n, q), up(g.k, q)}
}

func gemmRate(g gemm, reps int) (float64, error) {
	s, err := gemmSeconds(g, reps)
	return g.flops() / s / 1e9, err
}

// probeMat measures the kernel alone at the workload's per-task shape.
// mat.ops_per_byte is computed, not measured: 2MNK / 8(MK + KN + 2MN) at the
// workload's primary shape.
func probeMat(w *workload, m metrics) (taskGflops float64, err error) {
	rows, cols := gridShape(w.nprocs())
	taskGflops, err = gemmRate(taskShape(w.primary(), rows, cols), 9)
	if err != nil {
		return 0, err
	}
	m.set("mat.gemm_task_gflops", "GFLOP/s", taskGflops)
	g := w.primary()
	mk, kn, mn := float64(g.m*g.k), float64(g.k*g.n), float64(g.m*g.n)
	m.set("mat.ops_per_byte", "flop/B", g.flops()/(8*(mk+kn+2*mn)))
	return taskGflops, nil
}

// The kernel at fixed shapes. Each of these runs only in the traced run of the
// one workload it explains (workload.extra); shrink divides the dimensions
// (1 for a real run; the smoke tests pass more).

// probeGemm1024 is the plain single-threaded baseline lib-nn-1024's gflops is
// set against.
func probeGemm1024(shrink int, d metrics) error {
	r, err := gemmRate(cube(1024/shrink), 5)
	d.set("mat.gemm_1024_gflops", "GFLOP/s", r)
	return err
}

// probeGemmTrans is the slowest transposed case at lib-trans-ragged's per-task
// shape.
func probeGemmTrans(shrink int, d metrics) error {
	worst := 0.0
	for _, cs := range []srumma.Case{srumma.TN, srumma.NT, srumma.TT} {
		r, err := gemmRate(gemm{cs, 511 / shrink, 255 / shrink, 766 / shrink}, 7)
		if err != nil {
			return err
		}
		if worst == 0 || r < worst {
			worst = r
		}
	}
	d.set("mat.gemm_trans_gflops", "GFLOP/s", worst)
	return nil
}

// probeGemm96 is the one kernel call a request of serve-small's most frequent
// shape makes.
func probeGemm96(_ int, d metrics) error {
	s, err := gemmSeconds(cube(96), 301)
	d.set("mat.gemm_96_us", "us", s*1e6)
	return err
}
