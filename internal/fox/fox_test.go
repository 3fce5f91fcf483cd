package fox

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

func check(t *testing.T, p int, d core.Dims) {
	t.Helper()
	g, err := grid.New(p, p)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d)
	aGlob := mat.Random(d.M, d.K, 61)
	bGlob := mat.Random(d.K, d.N, 62)
	co := driver.NewCollect(g.Size())
	topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}
	_, err = armci.Run(topo, func(c rt.Ctx) {
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		if err := Multiply(c, g, d, ga, gb, gc); err != nil {
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
	want := mat.New(d.M, d.N)
	if err := mat.GemmNaive(false, false, 1, aGlob, bGlob, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
		t.Errorf("p=%d dims=%+v: diff %g", p, d, diff)
	}
}

func TestFoxSquare(t *testing.T) {
	check(t, 1, core.Dims{M: 8, N: 8, K: 8})
	check(t, 2, core.Dims{M: 16, N: 16, K: 16})
	check(t, 3, core.Dims{M: 18, N: 18, K: 18})
	check(t, 4, core.Dims{M: 32, N: 32, K: 32})
}

func TestFoxUnevenAndRectangular(t *testing.T) {
	check(t, 3, core.Dims{M: 17, N: 19, K: 23})
	check(t, 2, core.Dims{M: 24, N: 8, K: 16})
	check(t, 4, core.Dims{M: 10, N: 13, K: 6})
}

func TestFoxRejectsNonSquareGrid(t *testing.T) {
	g, _ := grid.New(2, 3)
	topo := rt.Topology{NProcs: 6, ProcsPerNode: 2}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		gg := c.Malloc(1)
		if err := Multiply(c, g, core.Dims{M: 6, N: 6, K: 6}, gg, gg, gg); err == nil {
			panic("want non-square error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFoxQuick(t *testing.T) {
	f := func(mm, nn, kk, pp uint8) bool {
		p := 1 + int(pp%3)
		d := core.Dims{M: 1 + int(mm%20), N: 1 + int(nn%20), K: 1 + int(kk%20)}
		g, _ := grid.New(p, p)
		da, db, dc := Dists(g, d)
		seed := uint64(mm)*3 + uint64(kk)
		aGlob := mat.Random(d.M, d.K, seed)
		bGlob := mat.Random(d.K, d.N, seed+1)
		co := driver.NewCollect(g.Size())
		topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}
		_, err := armci.Run(topo, func(c rt.Ctx) {
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gcG := driver.AllocBlock(c, dc)
			driver.LoadBlock(c, da, ga, aGlob)
			driver.LoadBlock(c, db, gb, bGlob)
			if err := Multiply(c, g, d, ga, gb, gcG); err != nil {
				panic(err)
			}
			co.Deposit(c, driver.StoreBlock(c, dc, gcG))
		})
		if err != nil {
			return false
		}
		got, err := dc.Gather(co.Blocks)
		if err != nil {
			return false
		}
		want := mat.New(d.M, d.N)
		if mat.GemmNaive(false, false, 1, aGlob, bGlob, 0, want) != nil {
			return false
		}
		return mat.MaxAbsDiff(got, want) <= 1e-10*float64(d.K)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFoxOnSimEngine(t *testing.T) {
	g, _ := grid.New(3, 3)
	d := core.Dims{M: 300, N: 300, K: 300}
	da, db, dc := Dists(g, d)
	res, err := simrt.Run(machine.LinuxMyrinet(), 9, func(c rt.Ctx) {
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gcG := driver.AllocBlock(c, dc)
		if err := Multiply(c, g, d, ga, gb, gcG); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no virtual time")
	}
}
