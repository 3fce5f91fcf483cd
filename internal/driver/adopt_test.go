package driver

// Adoption gates. Bind on the in-process engine hands each rank the window
// of the caller's matrix that is its block; these tests hold that to the
// allocate-and-load path bit for bit — every transpose case, ragged and
// degenerate shapes, ranks owning empty blocks, flat and hierarchical,
// split tasks, both buffering modes — and check that caller operands that
// are themselves views (Stride > Cols, non-zero origin) come back untouched.

import (
	"fmt"
	"math"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// viewOf returns an r x c view at a non-zero origin of a wider random
// matrix, and the matrix.
func viewOf(r, c int, seed uint64) (view, whole *mat.Matrix) {
	whole = mat.Random(r+3, c+5, seed)
	return whole.View(2, 3, r, c), whole
}

func must(g *grid.Grid, err error) *grid.Grid {
	if err != nil {
		panic(err)
	}
	return g
}

func bitEqual(a, b *mat.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.Data[i*a.Stride+j]) != math.Float64bits(b.Data[i*b.Stride+j]) {
				return false
			}
		}
	}
	return true
}

// bothPlacements multiplies once with A, B and the result adopted and once
// with allocate-and-load, in the same run, and returns the two results.
func bothPlacements(t *testing.T, nprocs int, d core.Dims, opts core.Options, useHier bool, a, b *mat.Matrix) (adopted, loaded *mat.Matrix) {
	t.Helper()
	g, err := grid.Square(nprocs)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: nprocs, ProcsPerNode: min(2, nprocs)}
	da, db, dc := core.Dists(g, d, opts.Case)
	multiply := func(c rt.Ctx, ga, gb, gc rt.Global) {
		var err error
		if useHier {
			err = hier.Multiply(c, hier.From(topo, g), d, hier.Options{Options: opts}, ga, gb, gc)
		} else {
			err = core.Multiply(c, g, d, opts, ga, gb, gc)
		}
		if err != nil {
			panic(err)
		}
	}
	adopted = mat.New(d.M, d.N)
	co := NewCollect(nprocs)
	_, err = armci.Run(topo, func(c rt.Ctx) {
		ga, gb, gc := Bind(c, da, a), Bind(c, db, b), Bind(c, dc, adopted)
		if ga.LD() != a.Stride || gb.LD() != b.Stride || gc.LD() != adopted.Stride {
			panic("Bind on armci did not adopt")
		}
		multiply(c, ga, gb, gc)

		ga, gb, gc = AllocBlock(c, da), AllocBlock(c, db), AllocBlock(c, dc)
		LoadBlock(c, da, ga, a)
		LoadBlock(c, db, gb, b)
		multiply(c, ga, gb, gc)
		co.Deposit(c, StoreBlock(c, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err = dc.Gather(co.Blocks); err != nil {
		t.Fatal(err)
	}
	return adopted, loaded
}

func TestAdoptedBitIdenticalToLoaded(t *testing.T) {
	type shape struct{ m, n, k int }
	small := []shape{{7, 5, 3}, {1, 1, 1}, {3, 40, 9}, {40, 2, 9}} // the last two leave ranks of a 4x4 or 2x3 grid without rows / columns
	big := []shape{{1024, 1024, 1024}, {1021, 509, 1531}}
	if raceEnabled {
		big = []shape{{256, 256, 256}, {255, 127, 383}}
	}
	run := func(sh shape, cs core.Case, nprocs int, useHier bool, maxK int, single bool) {
		d := core.Dims{M: sh.m, N: sh.n, K: sh.k}
		opts := core.Options{Case: cs, MaxTaskK: maxK, SingleBuffer: single}
		da, db, _ := core.Dists(must(grid.Square(nprocs)), d, cs)
		a, aWhole := viewOf(da.Rows, da.Cols, 7)
		b, bWhole := viewOf(db.Rows, db.Cols, 8)
		aWas, bWas := aWhole.Clone(), bWhole.Clone()
		adopted, loaded := bothPlacements(t, nprocs, d, opts, useHier, a, b)
		label := fmt.Sprintf("%dx%dx%d %v P=%d hier=%v maxK=%d single=%v", sh.m, sh.n, sh.k, cs, nprocs, useHier, maxK, single)
		if !bitEqual(adopted, loaded) {
			t.Errorf("%s: adopted result differs from allocate-and-load", label)
		}
		if !bitEqual(aWhole, aWas) || !bitEqual(bWhole, bWas) {
			t.Errorf("%s: the caller's operands were written", label)
		}
	}
	for _, nprocs := range []int{1, 2, 3, 4, 6, 16} {
		for _, cs := range core.Cases {
			for _, useHier := range []bool{false, true} {
				for vi, v := range []struct {
					maxK   int
					single bool
				}{{0, false}, {64, false}, {0, true}, {64, true}} {
					for _, sh := range small {
						run(sh, cs, nprocs, useHier, v.maxK, v.single)
					}
					// The big shapes take each (case, P, flat/hier) once, the
					// executor variants dealt round-robin across them.
					if !testing.Short() && vi == (nprocs+int(cs))%4 {
						for _, sh := range big {
							run(sh, cs, nprocs, useHier, v.maxK, v.single)
						}
					}
				}
			}
		}
	}
}

// TestBindFallsBackToAllocateAndLoad: on an engine that cannot adopt, Bind
// is AllocBlock + LoadBlock, and LoadBlock packs a strided source row by
// row into the tight segment.
func TestBindFallsBackToAllocateAndLoad(t *testing.T) {
	g := must(grid.New(2, 3))
	d := grid.NewBlockDist(g, 11, 13)
	m, _ := viewOf(11, 13, 5)
	co := NewCollect(6)
	_, err := armci.Run(rt.Topology{NProcs: 6, ProcsPerNode: 2}, func(c rt.Ctx) {
		gl := Bind(noAdopt{c}, d, m)
		if gl.LD() != 0 {
			panic("fallback Bind returned a strided Global")
		}
		co.Deposit(c, StoreBlock(c, d, gl))
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := d.Gather(co.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(back, m) {
		t.Fatal("allocate-and-load lost data")
	}
}

// noAdopt hides the engine's rt.Adopter (no Unwrap, so FindAdopter stops).
type noAdopt struct{ rt.Ctx }

// TestAdoptedBlockRoundTrip: StoreBlock and WriteBlock honour an adopted
// Global's leading dimension — the salvage and restore of a resumed job on
// an in-place result go through them.
func TestAdoptedBlockRoundTrip(t *testing.T) {
	g := must(grid.New(2, 2))
	d := grid.NewBlockDist(g, 9, 7)
	m, whole := viewOf(9, 7, 3)
	want := m.Clone()
	was := whole.Clone()
	_, err := armci.Run(rt.Topology{NProcs: 4, ProcsPerNode: 2}, func(c rt.Ctx) {
		gl := Bind(c, d, m)
		blk := StoreBlock(c, d, gl)
		i, j := d.BlockOrigin(d.G.Coords(c.Rank()))
		if !bitEqual(blk, want.View(i, j, blk.Rows, blk.Cols)) {
			panic("StoreBlock on an adopted Global read the wrong elements")
		}
		for k := range blk.Data {
			blk.Data[k] = -blk.Data[k]
		}
		WriteBlock(c, gl, blk)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if m.At(i, j) != -want.At(i, j) {
				t.Fatalf("WriteBlock missed element (%d,%d)", i, j)
			}
		}
	}
	// Only the view's own elements may have changed.
	m.Zero()
	was.View(2, 3, 9, 7).Zero()
	if !bitEqual(whole, was) {
		t.Fatal("WriteBlock wrote outside the adopted view")
	}
}
