package pdgemm

import (
	"testing"
	"testing/quick"

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
	da, db, dc, err := Dists(g, d, opts.Case, opts.NB)
	if err != nil {
		t.Fatal(err)
	}
	aGlob := mat.Random(da.Rows, da.Cols, seedA)
	bGlob := mat.Random(db.Rows, db.Cols, seedB)
	co := driver.NewCollect(g.Size())
	topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}
	_, err = armci.Run(topo, func(c rt.Ctx) {
		ga := driver.AllocCyclic(c, da)
		gb := driver.AllocCyclic(c, db)
		gc := driver.AllocCyclic(c, dc)
		driver.LoadCyclic(c, da, ga, aGlob)
		driver.LoadCyclic(c, db, gb, bGlob)
		if err := Multiply(c, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(c, driver.StoreCyclic(c, dc, gc))
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
	got := runReal(t, p, q, d, opts, 51, 52)
	ar, ac := d.M, d.K
	if opts.Case.TransA() {
		ar, ac = d.K, d.M
	}
	br, bc := d.K, d.N
	if opts.Case.TransB() {
		br, bc = d.N, d.K
	}
	a := mat.Random(ar, ac, 51)
	b := mat.Random(br, bc, 52)
	want := mat.New(d.M, d.N)
	if err := mat.GemmNaive(opts.Case.TransA(), opts.Case.TransB(), 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
		t.Errorf("grid %dx%d %+v dims %+v: diff %g", p, q, opts, d, diff)
	}
}

func TestPdgemmNN(t *testing.T) {
	for _, pq := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}} {
		check(t, pq[0], pq[1], core.Dims{M: 20, N: 24, K: 28}, Options{NB: 4})
	}
}

func TestPdgemmAllCases(t *testing.T) {
	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		check(t, 2, 3, core.Dims{M: 18, N: 22, K: 26}, Options{Case: cs, NB: 4})
		check(t, 2, 2, core.Dims{M: 15, N: 13, K: 17}, Options{Case: cs, NB: 3})
	}
}

func TestPdgemmTileWidths(t *testing.T) {
	for _, nb := range []int{1, 2, 5, 16, 100} {
		check(t, 2, 2, core.Dims{M: 16, N: 16, K: 16}, Options{NB: nb})
	}
}

func TestPdgemmQuick(t *testing.T) {
	f := func(mm, nn, kk, cc8, nb8 uint8) bool {
		d := core.Dims{M: 1 + int(mm%20), N: 1 + int(nn%20), K: 1 + int(kk%20)}
		opts := Options{Case: core.Case(cc8 % 4), NB: 1 + int(nb8%6)}
		g, _ := grid.New(2, 2)
		da, db, dc, err := Dists(g, d, opts.Case, opts.NB)
		if err != nil {
			return false
		}
		seed := uint64(mm)*31 + uint64(kk)
		aGlob := mat.Random(da.Rows, da.Cols, seed)
		bGlob := mat.Random(db.Rows, db.Cols, seed+1)
		co := driver.NewCollect(4)
		topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
		_, err = armci.Run(topo, func(c rt.Ctx) {
			ga := driver.AllocCyclic(c, da)
			gb := driver.AllocCyclic(c, db)
			gcG := driver.AllocCyclic(c, dc)
			driver.LoadCyclic(c, da, ga, aGlob)
			driver.LoadCyclic(c, db, gb, bGlob)
			if err := Multiply(c, g, d, opts, ga, gb, gcG); err != nil {
				panic(err)
			}
			co.Deposit(c, driver.StoreCyclic(c, dc, gcG))
		})
		if err != nil {
			return false
		}
		got, err := dc.Gather(co.Blocks)
		if err != nil {
			return false
		}
		want := mat.New(d.M, d.N)
		if mat.GemmNaive(opts.Case.TransA(), opts.Case.TransB(), 1, aGlob, bGlob, 0, want) != nil {
			return false
		}
		return mat.MaxAbsDiff(got, want) <= 1e-10*float64(d.K)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPdgemmOnSimEngineAllPlatforms(t *testing.T) {
	for name, prof := range machine.All() {
		prof := prof
		t.Run(name, func(t *testing.T) {
			g, _ := grid.New(2, 4)
			d := core.Dims{M: 256, N: 256, K: 256}
			da, db, dc, _ := Dists(g, d, core.NN, 64)
			res, err := simrt.Run(prof, 8, func(c rt.Ctx) {
				ga := driver.AllocCyclic(c, da)
				gb := driver.AllocCyclic(c, db)
				gcG := driver.AllocCyclic(c, dc)
				if err := Multiply(c, g, d, Options{NB: 64}, ga, gb, gcG); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Time <= 0 {
				t.Fatal("no virtual time")
			}
		})
	}
}
