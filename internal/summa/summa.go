// Package summa implements SUMMA (van de Geijn & Watts 1997), the
// message-passing matrix multiplication the paper compares against: a loop
// over K panels of width nb, each step broadcasting a column panel of A
// along grid rows and a row panel of B along grid columns (pipelined ring
// broadcasts), followed by a local rank-nb dgemm update. Operands use the
// regular block distribution; transposed cases are reduced to NN by a
// distributed transpose first (package redist), the way PBLAS handles
// PxTRANS operands.
package summa

import (
	"fmt"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/mp"
	"srumma/internal/redist"
	"srumma/internal/rt"
)

// DefaultNB is the panel width used when Options.NB is zero.
const DefaultNB = 64

// Options configure the SUMMA baseline.
type Options struct {
	// Case selects the transpose variant; non-NN cases pay a distributed
	// transpose up front.
	Case core.Case
	// NB is the panel width (DefaultNB when zero).
	NB int
	// BinomialBcast replaces the pipelined ring broadcast with a binomial
	// tree (ablation; real SUMMA pipelines).
	BinomialBcast bool
	// Segment is the ring-broadcast pipeline segment in elements
	// (panel-size when zero, i.e. no segmentation).
	Segment int
	// DIMMA processes k-panels grouped by owning grid column/row instead of
	// in ascending k order — Choi's DIMMA (IPPS'97) modification of SUMMA's
	// communication schedule, which keeps each broadcast root streaming
	// consecutive panels instead of handing the ring off every step.
	DIMMA bool
}

// Dists returns the block distributions of the stored operands A, B, C.
func Dists(g *grid.Grid, d core.Dims, cs core.Case) (da, db, dc *grid.BlockDist) {
	ar, ac := d.M, d.K
	if cs.TransA() {
		ar, ac = d.K, d.M
	}
	br, bc := d.K, d.N
	if cs.TransB() {
		br, bc = d.N, d.K
	}
	return grid.NewBlockDist(g, ar, ac), grid.NewBlockDist(g, br, bc), grid.NewBlockDist(g, d.M, d.N)
}

const (
	tagA = 8100
	tagB = 8200
)

// ScheduleOrder is the reusable core of SUMMA's communication schedule: the
// processing order of n panel steps given the broadcast root of each step.
// With dimma false it is the identity (van de Geijn & Watts' ascending-k
// SUMMA). With dimma true it applies Choi's DIMMA (IPPS'97) regrouping —
// steps sorted stably by root so each root streams its panels back to back —
// with the root sequence additionally rotated by rot (mod nRoots), the
// diagonal-shift stagger SRUMMA applies per requester (paper Figure 4).
//
// SUMMA itself calls it with grid columns as roots and rot 0; the
// hierarchical outer level (internal/hier) reuses it with GROUPS as roots
// and rot = the requesting group's index, so at any outer step each group
// serves roughly one other group instead of all groups draining the same
// owner.
func ScheduleOrder(n int, root func(step int) int, nRoots, rot int, dimma bool) []int {
	order := make([]int, 0, n)
	if !dimma || nRoots <= 0 {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	for r := 0; r < nRoots; r++ {
		want := (r + rot) % nRoots
		for i := 0; i < n; i++ {
			if root(i) == want {
				order = append(order, i)
			}
		}
	}
	// Steps whose root falls outside [0, nRoots) would otherwise be dropped;
	// keep them at the tail in original order so the schedule stays total.
	for i := 0; i < n; i++ {
		if r := root(i); r < 0 || r >= nRoots {
			order = append(order, i)
		}
	}
	return order
}

// Multiply runs SUMMA collectively: C = op(A) op(B) with the operands
// block-distributed per Dists. C is overwritten.
func Multiply(c rt.Ctx, g *grid.Grid, d core.Dims, opts Options, ga, gb, gc rt.Global) error {
	if d.M <= 0 || d.N <= 0 || d.K <= 0 {
		return fmt.Errorf("summa: dimensions %+v must be positive", d)
	}
	if g.Size() != c.Size() {
		return fmt.Errorf("summa: grid needs %d ranks, runtime has %d", g.Size(), c.Size())
	}
	nb := opts.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	c.Barrier()

	// Reduce transposed operands to NN layout with a distributed transpose.
	daNN := grid.NewBlockDist(g, d.M, d.K)
	dbNN := grid.NewBlockDist(g, d.K, d.N)
	aNN, bNN := ga, gb
	if opts.Case.TransA() {
		daT := grid.NewBlockDist(g, d.K, d.M)
		r, cc := daNN.LocalShape(c.Rank())
		aNN = c.Malloc(r * cc)
		redist.TransposeBlock(c, daT, daNN, ga, aNN)
	}
	if opts.Case.TransB() {
		dbT := grid.NewBlockDist(g, d.N, d.K)
		r, cc := dbNN.LocalShape(c.Rank())
		bNN = c.Malloc(r * cc)
		redist.TransposeBlock(c, dbT, dbNN, gb, bNN)
	}

	me := c.Rank()
	myRow, myCol := g.Coords(me)
	mLoc := daNN.RowChunks[myRow].N
	nLoc := dbNN.ColChunks[myCol].N
	kColsA := daNN.ColChunks // K over Q
	kRowsB := dbNN.RowChunks // K over P
	dc := grid.NewBlockDist(g, d.M, d.N)
	cr, ccols := dc.LocalShape(me)
	if gc.LenAt(me) != cr*ccols {
		return fmt.Errorf("summa: C segment %d does not match local block %dx%d", gc.LenAt(me), cr, ccols)
	}

	rowGroup := g.RowRanks(myRow)
	colGroup := g.ColRanks(myCol)
	aPanel := c.LocalBuf(mLoc * nb)
	bPanel := c.LocalBuf(nb * nLoc)
	aLocal := c.Local(aNN)
	bLocal := c.Local(bNN)
	cLocal := c.Local(gc)

	bcast := func(root int, group []int, buf rt.Buffer, n, tag int) {
		if opts.BinomialBcast {
			mp.Bcast(c, root, group, buf, 0, n, tag)
			return
		}
		seg := opts.Segment
		if seg <= 0 {
			seg = n
		}
		mp.RingBcast(c, root, group, buf, 0, n, seg, tag)
	}

	// Walk K in panels that never straddle an owner boundary: cut at every
	// multiple of nb and at every chunk edge of A's and B's k-partitions.
	type panel struct {
		kLo, w, ocA, orB int
	}
	var panels []panel
	for kLo := 0; kLo < d.K; {
		ocA := grid.PartitionOf(d.K, g.Q, kLo)
		orB := grid.PartitionOf(d.K, g.P, kLo)
		w := nb
		if rem := kColsA[ocA].Lo + kColsA[ocA].N - kLo; rem < w {
			w = rem
		}
		if rem := kRowsB[orB].Lo + kRowsB[orB].N - kLo; rem < w {
			w = rem
		}
		if rem := d.K - kLo; rem < w {
			w = rem
		}
		panels = append(panels, panel{kLo: kLo, w: w, ocA: ocA, orB: orB})
		kLo += w
	}
	if opts.DIMMA {
		// Group panels by their A-broadcast root column so each root streams
		// its panels back to back (stable within a group, so k stays
		// ascending per root).
		order := ScheduleOrder(len(panels), func(i int) int { return panels[i].ocA }, g.Q, 0, true)
		grouped := make([]panel, 0, len(panels))
		for _, i := range order {
			grouped = append(grouped, panels[i])
		}
		panels = grouped
	}

	for step, pn := range panels {
		kLo, w, ocA, orB := pn.kLo, pn.w, pn.ocA, pn.orB

		// A panel: owner column ocA packs local columns, broadcast along rows.
		aRoot := g.Rank(myRow, ocA)
		if me == aRoot && mLoc > 0 && w > 0 {
			c.Pack(rt.Mat{
				Buf:  aLocal,
				Off:  kLo - kColsA[ocA].Lo,
				LD:   kColsA[ocA].N,
				Rows: mLoc,
				Cols: w,
			}, aPanel, 0)
		}
		if mLoc > 0 && w > 0 {
			bcast(aRoot, rowGroup, aPanel, mLoc*w, tagA+step%64)
		}
		// B panel: owner row orB packs local rows, broadcast along columns.
		bRoot := g.Rank(orB, myCol)
		if me == bRoot && nLoc > 0 && w > 0 {
			c.Pack(rt.Mat{
				Buf:  bLocal,
				Off:  (kLo - kRowsB[orB].Lo) * nLoc,
				LD:   nLoc,
				Rows: w,
				Cols: nLoc,
			}, bPanel, 0)
		}
		if nLoc > 0 && w > 0 {
			bcast(bRoot, colGroup, bPanel, w*nLoc, tagB+step%64)
		}

		if mLoc > 0 && nLoc > 0 && w > 0 {
			beta := 1.0
			if step == 0 {
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
