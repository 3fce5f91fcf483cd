package summa

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/mat"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

func runReal(t *testing.T, p, q int, d core.Dims, opts Options, seedA, seedB uint64) *mat.Matrix {
	t.Helper()
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, seedA)
	bGlob := mat.Random(db.Rows, db.Cols, seedB)
	co := driver.NewCollect(g.Size())
	topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}
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

func check(t *testing.T, p, q int, d core.Dims, opts Options) {
	t.Helper()
	got := runReal(t, p, q, d, opts, 31, 32)
	ar, ac := d.M, d.K
	if opts.Case.TransA() {
		ar, ac = d.K, d.M
	}
	br, bc := d.K, d.N
	if opts.Case.TransB() {
		br, bc = d.N, d.K
	}
	a := mat.Random(ar, ac, 31)
	b := mat.Random(br, bc, 32)
	want := mat.New(d.M, d.N)
	if err := mat.GemmNaive(opts.Case.TransA(), opts.Case.TransB(), 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
		t.Errorf("grid %dx%d %+v: diff %g", p, q, opts, diff)
	}
}

func TestSummaNNVariousGrids(t *testing.T) {
	for _, pq := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}, {1, 4}} {
		check(t, pq[0], pq[1], core.Dims{M: 20, N: 24, K: 28}, Options{NB: 5})
	}
}

func TestSummaAllCases(t *testing.T) {
	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		check(t, 2, 3, core.Dims{M: 18, N: 22, K: 26}, Options{Case: cs, NB: 4})
	}
}

func TestSummaPanelWidths(t *testing.T) {
	for _, nb := range []int{1, 3, 7, 64, 1000} {
		check(t, 2, 2, core.Dims{M: 16, N: 16, K: 16}, Options{NB: nb})
	}
}

func TestSummaUnevenAndSkinny(t *testing.T) {
	check(t, 3, 3, core.Dims{M: 17, N: 19, K: 23}, Options{NB: 4})
	check(t, 2, 2, core.Dims{M: 40, N: 40, K: 3}, Options{NB: 8})
	check(t, 4, 2, core.Dims{M: 5, N: 33, K: 19}, Options{NB: 4})
}

func TestSummaRejectsBadInput(t *testing.T) {
	g, _ := grid.New(2, 2)
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		gg := c.Malloc(1)
		if err := Multiply(c, g, core.Dims{M: -1, N: 4, K: 4}, Options{}, gg, gg, gg); err == nil {
			panic("want dims error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummaOnSimEngine(t *testing.T) {
	prof := machine.SGIAltix()
	g, _ := grid.New(2, 4)
	d := core.Dims{M: 256, N: 256, K: 256}
	da, db, dc := Dists(g, d, core.NN)
	run := func() float64 {
		res, err := simrt.Run(prof, 8, func(c rt.Ctx) {
			r, cc := da.LocalShape(c.Rank())
			ga := c.Malloc(r * cc)
			r, cc = db.LocalShape(c.Rank())
			gb := c.Malloc(r * cc)
			r, cc = dc.LocalShape(c.Rank())
			gcG := c.Malloc(r * cc)
			if err := Multiply(c, g, d, Options{NB: 64}, ga, gb, gcG); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	t1, t2 := run(), run()
	if t1 != t2 || t1 <= 0 {
		t.Fatalf("sim run bad: %v vs %v", t1, t2)
	}
}
