package core

// Recovery-unit tests: the task ledger bitset, the zero-alloc guarantee of
// the disabled paths, the resume contract (a fully-marked ledger makes
// MultiplyEx a no-op that neither re-executes tasks nor re-applies beta),
// and the ABFT-on bit-identity of a clean run.

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

func TestLedgerBitset(t *testing.T) {
	jl := NewJobLedger(2)
	lg := jl.Rank(0, 70) // spans two words
	if lg.Total() != 70 || lg.Completed() != 0 {
		t.Fatalf("fresh ledger total=%d completed=%d", lg.Total(), lg.Completed())
	}
	for _, ti := range []int{0, 1, 63, 64, 69} {
		if lg.Done(ti) {
			t.Fatalf("task %d done before Mark", ti)
		}
		lg.Mark(ti)
		if !lg.Done(ti) {
			t.Fatalf("task %d not done after Mark", ti)
		}
	}
	if lg.Completed() != 5 {
		t.Fatalf("completed = %d, want 5", lg.Completed())
	}
	lg.Mark(63) // idempotent
	if lg.Completed() != 5 {
		t.Fatalf("re-Mark changed completed to %d", lg.Completed())
	}
	lg.Unmark(63)
	if lg.Done(63) || lg.Completed() != 4 {
		t.Fatalf("Unmark: done=%v completed=%d", lg.Done(63), lg.Completed())
	}

	// Rank is get-or-create: same rank returns the same ledger.
	if jl.Rank(0, 70) != lg {
		t.Fatal("Rank(0) returned a different ledger")
	}
	// A second rank is independent; job totals aggregate both.
	lg1 := jl.Rank(1, 10)
	lg1.Mark(3)
	if jl.Completed() != 5 || jl.Total() != 80 {
		t.Fatalf("job completed=%d total=%d, want 5/80", jl.Completed(), jl.Total())
	}
	jl.Reset(0)
	if lg.Completed() != 0 || jl.Completed() != 1 {
		t.Fatalf("after Reset(0): rank0=%d job=%d", lg.Completed(), jl.Completed())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Rank with a different ntasks did not panic")
		}
	}()
	jl.Rank(0, 71)
}

// TestLedgerZeroAlloc pins the disabled/hot paths at zero allocations: the
// per-task Mark/Done bit operations, and the resume filter when no ledger
// (or an empty one) is present.
func TestLedgerZeroAlloc(t *testing.T) {
	jl := NewJobLedger(1)
	lg := jl.Rank(0, 128)
	if n := testing.AllocsPerRun(100, func() {
		lg.Mark(17)
		_ = lg.Done(17)
		lg.Unmark(17)
	}); n != 0 {
		t.Errorf("ledger bit ops allocate %v per run, want 0", n)
	}
	tasks := make([]Task, 8)
	if n := testing.AllocsPerRun(100, func() {
		if _, orig, touched := unfinished(tasks, nil); orig != nil || touched != nil {
			t.Fatal("nil ledger produced a resume view")
		}
		if _, orig, touched := unfinished(tasks, lg); orig != nil || touched != nil {
			t.Fatal("empty ledger produced a resume view")
		}
	}); n != 0 {
		t.Errorf("disabled resume filter allocates %v per run, want 0", n)
	}
}

// resumeHarness runs MultiplyEx twice against the same job ledger: once
// from scratch (marking every task) and once "resumed" with the finished C
// preloaded. The second run must be a pure no-op — bit-identical C, no
// re-applied beta, no re-executed accumulation.
func TestResumeFullyMarkedLedgerIsNoOp(t *testing.T) {
	const procs = 4
	g, err := grid.Square(procs)
	if err != nil {
		t.Fatal(err)
	}
	d := Dims{M: 24, N: 24, K: 24}
	opts := Options{Case: NN, MaxTaskK: 6, Ledger: NewJobLedger(procs)}
	alpha, beta := 1.5, 0.5
	da, db, dc := Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, 31)
	bGlob := mat.Random(db.Rows, db.Cols, 32)
	c0 := mat.Random(dc.Rows, dc.Cols, 33)
	topo := rt.Topology{NProcs: procs, ProcsPerNode: 2}

	run := func(cIn *mat.Matrix) *mat.Matrix {
		t.Helper()
		co := driver.NewCollect(procs)
		_, err := armci.Run(topo, func(c rt.Ctx) {
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			driver.LoadBlock(c, da, ga, aGlob)
			driver.LoadBlock(c, db, gb, bGlob)
			driver.LoadBlock(c, dc, gc, cIn)
			if err := MultiplyEx(c, g, d, opts, alpha, beta, ga, gb, gc); err != nil {
				panic(err)
			}
			co.Deposit(c, driver.StoreBlock(c, dc, gc))
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := dc.Gather(co.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	full := run(c0)
	if opts.Ledger.Completed() == 0 || opts.Ledger.Completed() != opts.Ledger.Total() {
		t.Fatalf("first run left ledger at %d/%d", opts.Ledger.Completed(), opts.Ledger.Total())
	}
	want := mat.New(d.M, d.N)
	a := mat.Random(da.Rows, da.Cols, 31)
	b := mat.Random(db.Rows, db.Cols, 32)
	cref := mat.Random(dc.Rows, dc.Cols, 33)
	if err := mat.GemmNaive(false, false, alpha, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		want.Data[i] += beta * cref.Data[i]
	}
	if diff := mat.MaxAbsDiff(full, want); diff > 1e-10*float64(d.K) {
		t.Fatalf("first run wrong: max diff %g", diff)
	}

	// Resume with everything already done: beta must NOT re-apply and no
	// task may re-accumulate — the result is the input, bit for bit.
	resumed := run(full)
	for i := range full.Data {
		if resumed.Data[i] != full.Data[i] {
			t.Fatalf("resumed C[%d] = %v, want %v (bit-exact): fully-marked ledger re-executed work", i, resumed.Data[i], full.Data[i])
		}
	}
}

// TestABFTCleanRunBitIdentical pins that turning verification on does not
// perturb a fault-free product: ABFT observes the kernel's C views, it
// never rewrites them unless a checksum fails.
func TestABFTCleanRunBitIdentical(t *testing.T) {
	const procs = 4
	g, err := grid.Square(procs)
	if err != nil {
		t.Fatal(err)
	}
	d := Dims{M: 30, N: 26, K: 28}
	topo := rt.Topology{NProcs: procs, ProcsPerNode: 2}
	run := func(abft bool) *mat.Matrix {
		t.Helper()
		opts := Options{Case: NN, MaxTaskK: 7, ABFT: abft}
		da, db, dc := Dists(g, d, opts.Case)
		aGlob := mat.Random(da.Rows, da.Cols, 41)
		bGlob := mat.Random(db.Rows, db.Cols, 42)
		co := driver.NewCollect(procs)
		stats, err := armci.Run(topo, func(c rt.Ctx) {
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			driver.LoadBlock(c, da, ga, aGlob)
			driver.LoadBlock(c, db, gb, bGlob)
			if err := MultiplyEx(c, g, d, opts, 1, 0, ga, gb, gc); err != nil {
				panic(err)
			}
			co.Deposit(c, driver.StoreBlock(c, dc, gc))
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			if st != nil && st.ABFTDetected != 0 {
				t.Fatalf("clean run detected %d corrupted blocks", st.ABFTDetected)
			}
		}
		got, err := dc.Gather(co.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	off, on := run(false), run(true)
	for i := range off.Data {
		if off.Data[i] != on.Data[i] {
			t.Fatalf("C[%d]: ABFT-on %v != ABFT-off %v (must be bit-identical)", i, on.Data[i], off.Data[i])
		}
	}
}
