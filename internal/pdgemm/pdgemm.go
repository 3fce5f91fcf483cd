// Package pdgemm implements the ScaLAPACK/PBLAS-style baseline the paper
// measures against: SUMMA running over a two-dimensional block-cyclic
// distribution (the PBLAS data layout), with transposed operands reduced to
// NN by a distributed transpose (the PxTRANS redistribution step). All
// communication is two-sided message passing — broadcasts of A column
// panels along process rows and B row panels along process columns — which
// is exactly the property SRUMMA's one-sided design outperforms on shared
// memory systems.
package pdgemm

import (
	"fmt"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/mp"
	"srumma/internal/redist"
	"srumma/internal/rt"
)

// DefaultNB is the block-cyclic tile and panel width used when Options.NB
// is zero.
const DefaultNB = 64

// Options configure the pdgemm baseline.
type Options struct {
	Case core.Case
	NB   int // tile/panel width; DefaultNB when zero
}

// Dists returns the block-cyclic distributions of the stored operands.
func Dists(g *grid.Grid, d core.Dims, cs core.Case, nb int) (da, db, dc *grid.CyclicDist, err error) {
	if nb <= 0 {
		nb = DefaultNB
	}
	ar, ac := d.M, d.K
	if cs.TransA() {
		ar, ac = d.K, d.M
	}
	br, bc := d.K, d.N
	if cs.TransB() {
		br, bc = d.N, d.K
	}
	if da, err = grid.NewCyclicDist(g, ar, ac, nb); err != nil {
		return
	}
	if db, err = grid.NewCyclicDist(g, br, bc, nb); err != nil {
		return
	}
	dc, err = grid.NewCyclicDist(g, d.M, d.N, nb)
	return
}

const (
	tagA = 8400
	tagB = 8500
)

// Multiply runs pdgemm collectively: C = op(A) op(B) with block-cyclic
// operands per Dists. C is overwritten.
func Multiply(c rt.Ctx, g *grid.Grid, d core.Dims, opts Options, ga, gb, gc rt.Global) error {
	if d.M <= 0 || d.N <= 0 || d.K <= 0 {
		return fmt.Errorf("pdgemm: dimensions %+v must be positive", d)
	}
	if g.Size() != c.Size() {
		return fmt.Errorf("pdgemm: grid needs %d ranks, runtime has %d", g.Size(), c.Size())
	}
	nb := opts.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	me := c.Rank()
	myRow, myCol := g.Coords(me)
	c.Barrier()

	// Reduce transposed operands to NN layout.
	daNN, _ := grid.NewCyclicDist(g, d.M, d.K, nb)
	dbNN, _ := grid.NewCyclicDist(g, d.K, d.N, nb)
	aNN, bNN := ga, gb
	if opts.Case.TransA() {
		daT, _ := grid.NewCyclicDist(g, d.K, d.M, nb)
		r, cc := daNN.LocalShape(me)
		aNN = c.Malloc(r * cc)
		redist.TransposeCyclic(c, daT, daNN, ga, aNN)
	}
	if opts.Case.TransB() {
		dbT, _ := grid.NewCyclicDist(g, d.N, d.K, nb)
		r, cc := dbNN.LocalShape(me)
		bNN = c.Malloc(r * cc)
		redist.TransposeCyclic(c, dbT, dbNN, gb, bNN)
	}

	mLoc, kLocA := daNN.LocalShape(me)
	_, nLoc := dbNN.LocalShape(me)
	dcD, _ := grid.NewCyclicDist(g, d.M, d.N, nb)
	cr, cc := dcD.LocalShape(me)
	if gc.LenAt(me) != cr*cc {
		return fmt.Errorf("pdgemm: C segment %d does not match local %dx%d", gc.LenAt(me), cr, cc)
	}

	rowGroup := g.RowRanks(myRow)
	colGroup := g.ColRanks(myCol)
	aPanel := c.LocalBuf(mLoc * nb)
	bPanel := c.LocalBuf(nb * nLoc)
	aLocal := c.Local(aNN)
	bLocal := c.Local(bNN)
	cLocal := c.Local(gc)

	nTiles := (d.K + nb - 1) / nb
	for kt := 0; kt < nTiles; kt++ {
		w := nb
		if rem := d.K - kt*nb; rem < w {
			w = rem
		}
		// A panel: global k-tile kt lives on process column kt mod Q at
		// local column offset (kt/Q)*nb.
		ocA := kt % g.Q
		aRoot := g.Rank(myRow, ocA)
		if me == aRoot && mLoc > 0 {
			c.Pack(rt.Mat{Buf: aLocal, Off: (kt / g.Q) * nb, LD: kLocA, Rows: mLoc, Cols: w}, aPanel, 0)
		}
		if mLoc > 0 {
			n := mLoc * w
			mp.RingBcast(c, aRoot, rowGroup, aPanel, 0, n, tagA+kt%64)
		}
		// B panel: on process row kt mod P at local row offset (kt/P)*nb.
		orB := kt % g.P
		bRoot := g.Rank(orB, myCol)
		if me == bRoot && nLoc > 0 {
			c.Pack(rt.Mat{Buf: bLocal, Off: (kt / g.P) * nb * nLoc, LD: nLoc, Rows: w, Cols: nLoc}, bPanel, 0)
		}
		if nLoc > 0 {
			n := w * nLoc
			mp.RingBcast(c, bRoot, colGroup, bPanel, 0, n, tagB+kt%64)
		}
		if mLoc > 0 && nLoc > 0 {
			beta := 1.0
			if kt == 0 {
				beta = 0
			}
			c.Gemm(1,
				rt.Mat{Buf: aPanel, LD: w, Rows: mLoc, Cols: w},
				rt.Mat{Buf: bPanel, LD: nLoc, Rows: w, Cols: nLoc},
				beta,
				rt.Mat{Buf: cLocal, LD: nLoc, Rows: mLoc, Cols: nLoc})
		}
	}
	if opts.Case.TransA() {
		c.Free(aNN)
	}
	if opts.Case.TransB() {
		c.Free(bNN)
	}
	c.Barrier()
	return nil
}
