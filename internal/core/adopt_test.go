package core

// The executor against operands that are windows of wider matrices
// (rt.Adopter): the leading dimension is the operand's, the plan is not
// touched, and C — computed in place — is bit-identical to the result over
// tight segments. The whole shape x grid x option matrix lives with
// driver.Bind (internal/driver/adopt_test.go); here are the executor and
// the verified-gemm step on a strided C.

import (
	"fmt"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// adoptedRun multiplies views of wider matrices in place on a p x q grid,
// every rank's ctx passed through wrap, and returns the result, the summed
// stats and the same product (unverified) over tight segments, on ctxs
// passed through ref.
func adoptedRun(t *testing.T, p, q int, d Dims, opts Options, wrap, ref func(rt.Ctx) rt.Ctx) (adopted, tight *mat.Matrix, sum rt.Stats) {
	t.Helper()
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d, opts.Case)
	a := mat.Random(da.Rows+2, da.Cols+3, 11).View(1, 2, da.Rows, da.Cols)
	b := mat.Random(db.Rows+4, db.Cols+1, 22).View(3, 1, db.Rows, db.Cols)
	whole := mat.New(d.M+1, d.N+6)
	adopted = whole.View(1, 4, d.M, d.N)
	co := driver.NewCollect(g.Size())
	stats, err := armci.Run(rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}, func(raw rt.Ctx) {
		c := wrap(raw)
		ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, adopted)
		if gc.LD() != adopted.Stride {
			panic("result was not adopted")
		}
		if err := Multiply(c, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		plain := opts
		plain.ABFT = false
		ga, gb, gc = driver.AllocBlock(raw, da), driver.AllocBlock(raw, db), driver.AllocBlock(raw, dc)
		driver.LoadBlock(raw, da, ga, a)
		driver.LoadBlock(raw, db, gb, b)
		if err := Multiply(ref(raw), g, d, plain, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(raw, driver.StoreBlock(raw, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if tight, err = dc.Gather(co.Blocks); err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		sum.Add(s)
	}
	for i := 0; i < whole.Rows; i++ {
		for j := 0; j < whole.Cols; j++ {
			if inView := i >= 1 && j >= 4 && j < 4+d.N; !inView && whole.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) outside the result view was written", i, j)
			}
		}
	}
	return adopted, tight, sum
}

func TestExecutorsOnAdoptedOperands(t *testing.T) {
	d := Dims{M: 37, N: 29, K: 41}
	plain := func(c rt.Ctx) rt.Ctx { return c }
	for _, cs := range Cases {
		for _, maxK := range []int{0, 5} {
			for _, single := range []bool{false, true} {
				opts := Options{Case: cs, MaxTaskK: maxK, SingleBuffer: single}
				adopted, tight, _ := adoptedRun(t, 2, 3, d, opts, plain, plain)
				if !mat.Equal(adopted, tight) {
					t.Errorf("%v maxK=%d single=%v: in-place result differs from tight segments", cs, maxK, single)
				}
			}
		}
	}
}

// TestABFTRecomputesInPlace: silent corruption of blocks of a C that is
// computed in place in the caller's (strided) result is detected, restored
// and recomputed row by row against the result's own leading dimension —
// the recovered product is bit-identical to a clean one.
func TestABFTRecomputesInPlace(t *testing.T) {
	d := Dims{M: 48, N: 40, K: 56}
	plan, err := faults.NewPlan(faults.Config{Seed: 9, BadBlockRate: 0.25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range Cases {
		opts := Options{Case: cs, MaxTaskK: 8, ABFT: true}
		inject := func(c rt.Ctx) rt.Ctx { return faults.Inject(c, plan, nil) }
		adopted, tight, sum := adoptedRun(t, 2, 2, d, opts, inject, func(c rt.Ctx) rt.Ctx { return c })
		if sum.ABFTDetected == 0 || sum.ABFTRecomputed == 0 {
			t.Fatalf("%v: %d corrupted blocks detected, %d recomputed — the plan planted none", cs, sum.ABFTDetected, sum.ABFTRecomputed)
		}
		if !mat.Equal(adopted, tight) {
			t.Errorf("%v: recovered in-place result differs from a clean run", cs)
		}
	}
}

// TestStridedSegmentLengthChecked: Multiply rejects a Global whose segment
// lengths do not match its own leading dimension.
func TestStridedSegmentLengthChecked(t *testing.T) {
	g, _ := grid.New(2, 2)
	d := Dims{M: 8, N: 8, K: 8}
	da, db, dc := Dists(g, d, NN)
	a, b := mat.Random(8, 8, 1), mat.Random(8, 8, 2)
	wrong := mat.New(8, 9) // one column too wide for dc
	_, err := armci.Run(rt.Topology{NProcs: 4, ProcsPerNode: 2}, func(c rt.Ctx) {
		ga, gb := driver.Bind(c, da, a), driver.Bind(c, db, b)
		pr, pc := g.Coords(c.Rank())
		gc := c.(rt.Adopter).Adopt(wrong.View(4*pr, 4*pc, 4, 5).Data, wrong.Stride)
		if err := Multiply(c, g, d, Options{}, ga, gb, gc); err == nil {
			panic(fmt.Sprintf("rank %d: a 4x5 window passed for a 4x4 block of %v", c.Rank(), dc))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
