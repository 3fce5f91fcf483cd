package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// runReal executes SRUMMA on the real engine and returns the gathered C.
func runReal(t *testing.T, p, q, ppn int, span bool, d Dims, opts Options, seedA, seedB uint64) *mat.Matrix {
	t.Helper()
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, seedA)
	bGlob := mat.Random(db.Rows, db.Cols, seedB)
	co := driver.NewCollect(g.Size())
	topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: ppn, DomainSpansMachine: span}
	_, err = armci.Run(topo, func(c rt.Ctx) {
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		if err := Multiply(c, g, d, opts, ga, gb, gc); err != nil {
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

// reference computes op(A) op(B) with the naive kernel.
func reference(t *testing.T, d Dims, cs Case, seedA, seedB uint64) *mat.Matrix {
	t.Helper()
	ar, ac := d.M, d.K
	if cs.TransA() {
		ar, ac = d.K, d.M
	}
	br, bc := d.K, d.N
	if cs.TransB() {
		br, bc = d.N, d.K
	}
	a := mat.Random(ar, ac, seedA)
	b := mat.Random(br, bc, seedB)
	want := mat.New(d.M, d.N)
	if err := mat.GemmNaive(cs.TransA(), cs.TransB(), 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	return want
}

func checkCase(t *testing.T, p, q, ppn int, span bool, d Dims, opts Options) {
	t.Helper()
	got := runReal(t, p, q, ppn, span, d, opts, 11, 22)
	want := reference(t, d, opts.Case, 11, 22)
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
		t.Errorf("grid %dx%d ppn=%d %v dims=%+v opts=%+v: max diff %g", p, q, ppn, opts.Case, d, opts, diff)
	}
}

func TestMultiplyAllCasesSquareGrid(t *testing.T) {
	for _, cs := range Cases {
		t.Run(cs.String(), func(t *testing.T) {
			checkCase(t, 2, 2, 2, false, Dims{M: 24, N: 24, K: 24}, Options{Case: cs})
		})
	}
}

func TestMultiplyAllCasesRectGrid(t *testing.T) {
	// p != q exercises the k-partition intersection machinery, and the
	// transpose cases additionally exercise the m/n-piece intersections.
	for _, cs := range Cases {
		t.Run(cs.String(), func(t *testing.T) {
			checkCase(t, 2, 3, 2, false, Dims{M: 20, N: 25, K: 30}, Options{Case: cs})
		})
	}
}

func TestMultiplyRectangularMatrices(t *testing.T) {
	// The paper's Table 1 rectangular rows: m=4000,n=4000,k=1000 and
	// m=1000,n=1000,k=2000, scaled down.
	for _, d := range []Dims{
		{M: 40, N: 40, K: 10},
		{M: 10, N: 10, K: 20},
		{M: 7, N: 33, K: 19},
	} {
		for _, cs := range Cases {
			checkCase(t, 2, 2, 2, false, d, Options{Case: cs})
			checkCase(t, 3, 2, 4, false, d, Options{Case: cs})
		}
	}
}

func TestMultiplyUnevenBlocks(t *testing.T) {
	// Dimensions that do not divide the grid: uneven chunks everywhere.
	checkCase(t, 3, 3, 3, false, Dims{M: 17, N: 19, K: 23}, Options{})
	checkCase(t, 3, 3, 3, false, Dims{M: 17, N: 19, K: 23}, Options{Case: TT})
}

func TestMultiplySingleProc(t *testing.T) {
	for _, cs := range Cases {
		checkCase(t, 1, 1, 1, false, Dims{M: 9, N: 8, K: 7}, Options{Case: cs})
	}
}

func TestMultiplyMoreProcsThanK(t *testing.T) {
	// K=3 on a 5x1 grid leaves empty k-chunks.
	checkCase(t, 5, 1, 2, false, Dims{M: 10, N: 10, K: 3}, Options{})
}

func TestMultiplySharedMemoryMachine(t *testing.T) {
	// Whole machine one domain (Altix style): every operand direct.
	checkCase(t, 2, 2, 2, true, Dims{M: 16, N: 16, K: 16}, Options{})
	// X1 style: copy-based flavor.
	checkCase(t, 2, 2, 2, true, Dims{M: 16, N: 16, K: 16}, Options{Flavor: FlavorCopy})
}

func TestMultiplyAblationsStillCorrect(t *testing.T) {
	d := Dims{M: 18, N: 18, K: 18}
	for _, opts := range []Options{
		{NoDiagonalShift: true},
		{NoSharedFirst: true},
		{SingleBuffer: true},
		{NoDiagonalShift: true, NoSharedFirst: true, SingleBuffer: true},
		{Flavor: FlavorCopy},
		{Case: TN, SingleBuffer: true, Flavor: FlavorCopy},
	} {
		checkCase(t, 2, 3, 3, false, d, opts)
	}
}

func TestMultiplyValidation(t *testing.T) {
	g, _ := grid.New(2, 2)
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	// Bad dims.
	_, err := armci.Run(topo, func(c rt.Ctx) {
		gg := c.Malloc(1)
		if err := Multiply(c, g, Dims{M: 0, N: 4, K: 4}, Options{}, gg, gg, gg); err == nil {
			panic("want dims error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong segment sizes.
	_, err = armci.Run(topo, func(c rt.Ctx) {
		gg := c.Malloc(3) // not matching any 4x4 block distribution
		if err := Multiply(c, g, Dims{M: 4, N: 4, K: 4}, Options{}, gg, gg, gg); err == nil {
			panic("want segment-size error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Grid/runtime size mismatch.
	_, err = armci.Run(rt.Topology{NProcs: 2, ProcsPerNode: 1}, func(c rt.Ctx) {
		gg := c.Malloc(4)
		if err := Multiply(c, g, Dims{M: 4, N: 4, K: 4}, Options{}, gg, gg, gg); err == nil {
			panic("want grid-size error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyOverwritesC(t *testing.T) {
	// C must be overwritten, not accumulated into.
	g, _ := grid.New(2, 2)
	d := Dims{M: 8, N: 8, K: 8}
	da, db, dc := Dists(g, d, NN)
	aGlob := mat.Random(8, 8, 5)
	bGlob := mat.Random(8, 8, 6)
	co := driver.NewCollect(4)
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		driver.LoadBlock(c, dc, gc, mat.Indexed(8, 8)) // garbage in C
		if err := Multiply(c, g, d, Options{}, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(c, driver.StoreBlock(c, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := dc.Gather(co.Blocks)
	want := mat.New(8, 8)
	if err := mat.GemmNaive(false, false, 1, aGlob, bGlob, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-12 {
		t.Errorf("stale C leaked through: diff %g", diff)
	}
}

func TestMultiplyQuickRandomShapes(t *testing.T) {
	f := func(seed uint64, mm, nn, kk, pp uint8) bool {
		d := Dims{M: 1 + int(mm%24), N: 1 + int(nn%24), K: 1 + int(kk%24)}
		grids := [][2]int{{1, 2}, {2, 2}, {2, 3}, {3, 2}, {4, 1}}
		pq := grids[int(pp)%len(grids)]
		cs := Cases[int(seed%4)]
		g, err := grid.New(pq[0], pq[1])
		if err != nil {
			return false
		}
		da, db, dc := Dists(g, d, cs)
		aGlob := mat.Random(da.Rows, da.Cols, seed)
		bGlob := mat.Random(db.Rows, db.Cols, seed+1)
		co := driver.NewCollect(g.Size())
		topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}
		_, err = armci.Run(topo, func(c rt.Ctx) {
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			driver.LoadBlock(c, da, ga, aGlob)
			driver.LoadBlock(c, db, gb, bGlob)
			if err := Multiply(c, g, d, Options{Case: cs}, ga, gb, gc); err != nil {
				panic(err)
			}
			co.Deposit(c, driver.StoreBlock(c, dc, gc))
		})
		if err != nil {
			return false
		}
		got, err := dc.Gather(co.Blocks)
		if err != nil {
			return false
		}
		want := mat.New(d.M, d.N)
		if mat.GemmNaive(cs.TransA(), cs.TransB(), 1, aGlob, bGlob, 0, want) != nil {
			return false
		}
		return mat.MaxAbsDiff(got, want) <= 1e-10*float64(d.K)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistsShapes(t *testing.T) {
	g, _ := grid.New(2, 3)
	d := Dims{M: 10, N: 12, K: 14}
	da, db, dc := Dists(g, d, TN)
	if da.Rows != 14 || da.Cols != 10 {
		t.Fatalf("TN A dist %dx%d", da.Rows, da.Cols)
	}
	if db.Rows != 14 || db.Cols != 12 || dc.Rows != 10 || dc.Cols != 12 {
		t.Fatalf("TN B/C dist %dx%d / %dx%d", db.Rows, db.Cols, dc.Rows, dc.Cols)
	}
	_, dbNT, _ := Dists(g, d, NT)
	if dbNT.Rows != 12 || dbNT.Cols != 14 {
		t.Fatalf("NT B dist %dx%d", dbNT.Rows, dbNT.Cols)
	}
}

func TestCaseStrings(t *testing.T) {
	for cs, want := range map[Case]string{NN: "C=AB", TN: "C=AtB", NT: "C=ABt", TT: "C=AtBt"} {
		if cs.String() != want {
			t.Errorf("%d.String() = %q", int(cs), cs.String())
		}
	}
	if NN.TransA() || !TN.TransA() || !TT.TransB() || NT.TransA() {
		t.Error("transpose flags wrong")
	}
}

func ExampleCase_String() {
	fmt.Println(TN)
	// Output: C=AtB
}

func TestMultiplyMaxTaskK(t *testing.T) {
	// Correctness must hold for any task-granularity cap, including caps
	// that don't divide the chunk sizes and the degenerate cap of 1.
	for _, maxK := range []int{1, 3, 7, 100} {
		for _, cs := range Cases {
			checkCase(t, 2, 3, 2, false, Dims{M: 18, N: 20, K: 22}, Options{Case: cs, MaxTaskK: maxK})
		}
	}
}

func TestMaxTaskKBoundsBuffers(t *testing.T) {
	// With a cap, the scratch buffers must shrink accordingly. FlavorCopy
	// copies every fetch; FlavorDirect windows them and takes none.
	g, _ := grid.New(2, 2)
	d := Dims{M: 64, N: 64, K: 64}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 1}
	scratch := func(maxK int) int64 {
		da, db, dc := Dists(g, d, NN)
		var got int64
		stats, err := armci.Run(topo, func(c rt.Ctx) {
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			if err := Multiply(c, g, d, Options{Flavor: FlavorCopy, MaxTaskK: maxK}, ga, gb, gc); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			got += s.ScratchBytes
		}
		return got
	}
	full := scratch(0)
	capped := scratch(8)
	if capped >= full {
		t.Fatalf("MaxTaskK did not shrink buffers: %d vs %d", capped, full)
	}
}
