package cannon

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

func runReal(t *testing.T, p int, d core.Dims, seedA, seedB uint64) *mat.Matrix {
	t.Helper()
	g, err := grid.New(p, p)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d)
	aGlob := mat.Random(d.M, d.K, seedA)
	bGlob := mat.Random(d.K, d.N, seedB)
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
	return got
}

func check(t *testing.T, p int, d core.Dims) {
	t.Helper()
	got := runReal(t, p, d, 41, 42)
	a := mat.Random(d.M, d.K, 41)
	b := mat.Random(d.K, d.N, 42)
	want := mat.New(d.M, d.N)
	if err := mat.GemmNaive(false, false, 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
		t.Errorf("p=%d dims=%+v: diff %g", p, d, diff)
	}
}

func TestCannonSquare(t *testing.T) {
	check(t, 1, core.Dims{M: 8, N: 8, K: 8})
	check(t, 2, core.Dims{M: 16, N: 16, K: 16})
	check(t, 3, core.Dims{M: 18, N: 18, K: 18})
	check(t, 4, core.Dims{M: 32, N: 32, K: 32})
}

func TestCannonUnevenBlocks(t *testing.T) {
	check(t, 3, core.Dims{M: 17, N: 19, K: 23})
	check(t, 2, core.Dims{M: 5, N: 9, K: 7})
	check(t, 4, core.Dims{M: 10, N: 13, K: 6}) // some narrow k chunks
}

func TestCannonRectangular(t *testing.T) {
	check(t, 2, core.Dims{M: 24, N: 8, K: 16})
	check(t, 3, core.Dims{M: 9, N: 27, K: 12})
}

func TestCannonRejectsNonSquareGrid(t *testing.T) {
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

func TestCannonQuick(t *testing.T) {
	f := func(mm, nn, kk, pp uint8) bool {
		p := 1 + int(pp%3) // 1..3
		d := core.Dims{M: 1 + int(mm%20), N: 1 + int(nn%20), K: 1 + int(kk%20)}
		g, _ := grid.New(p, p)
		da, db, dc := Dists(g, d)
		seed := uint64(mm) + uint64(nn)*7
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCannonOnSimEngine(t *testing.T) {
	prof := machine.LinuxMyrinet()
	g, _ := grid.New(3, 3)
	d := core.Dims{M: 300, N: 300, K: 300}
	da, db, dc := Dists(g, d)
	res, err := simrt.Run(prof, 9, func(c rt.Ctx) {
		r, cc := da.LocalShape(c.Rank())
		ga := c.Malloc(r * cc)
		r, cc = db.LocalShape(c.Rank())
		gb := c.Malloc(r * cc)
		r, cc = dc.LocalShape(c.Rank())
		gcG := c.Malloc(r * cc)
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

// TestCannonSingleRankGrid pins the 1x1-grid path: the skew degenerates to
// an identity Pack copy, and the whole multiply is one local gemm.
func TestCannonSingleRankGrid(t *testing.T) {
	check(t, 1, core.Dims{M: 1, N: 1, K: 1})
	check(t, 1, core.Dims{M: 7, N: 3, K: 5})
}

// TestCannonEmptyChunks pins the empty-k-chunk edge the removed defensive
// fallback was guarding: with K < p some steps carry zero-width chunks, but
// every rank still meets a non-empty chunk within its p steps, so C is
// written (with beta=0 first) exactly once per tile.
func TestCannonEmptyChunks(t *testing.T) {
	check(t, 2, core.Dims{M: 8, N: 8, K: 1}) // chunks 1,0
	check(t, 3, core.Dims{M: 9, N: 9, K: 2}) // chunks 1,1,0
	check(t, 4, core.Dims{M: 8, N: 8, K: 3}) // chunks 1,1,1,0
	check(t, 2, core.Dims{M: 1, N: 1, K: 1}) // every dimension below the grid
	check(t, 3, core.Dims{M: 2, N: 2, K: 1}) // ranks with empty C tiles too
}
