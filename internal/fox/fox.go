// Package fox implements Fox's algorithm (Fox, Otto & Hey 1987), also
// known as broadcast-multiply-roll (BMR): at step s, the process in grid
// row i holding the diagonal-shifted block A(i, (i+s) mod p) broadcasts it
// along its row, every process multiplies it with its current B block, and
// B rolls upward by one position. It is one of the classic message-passing
// algorithms the paper's related-work section surveys, and like Cannon it
// requires a square process grid.
package fox

import (
	"fmt"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/mp"
	"srumma/internal/rt"
)

// Dists returns the block distributions of A (M x K), B (K x N) and
// C (M x N) on the square grid.
func Dists(g *grid.Grid, d core.Dims) (da, db, dc *grid.BlockDist) {
	return grid.NewBlockDist(g, d.M, d.K), grid.NewBlockDist(g, d.K, d.N), grid.NewBlockDist(g, d.M, d.N)
}

const (
	tagBcast = 8600
	tagRoll  = 8610
)

// Multiply runs Fox's algorithm collectively: C = A B (NN only) on a
// square p x p grid. C is overwritten.
func Multiply(c rt.Ctx, g *grid.Grid, d core.Dims, ga, gb, gc rt.Global) error {
	if g.P != g.Q {
		return fmt.Errorf("fox: requires a square grid, got %dx%d", g.P, g.Q)
	}
	if d.M <= 0 || d.N <= 0 || d.K <= 0 {
		return fmt.Errorf("fox: dimensions %+v must be positive", d)
	}
	if g.Size() != c.Size() {
		return fmt.Errorf("fox: grid needs %d ranks, runtime has %d", g.Size(), c.Size())
	}
	p := g.P
	da, db, _ := Dists(g, d)
	me := c.Rank()
	i, j := g.Coords(me)
	mLoc := da.RowChunks[i].N
	nLoc := db.ColChunks[j].N
	kChunks := da.ColChunks // == db.RowChunks on a square grid
	if gc.LenAt(me) != mLoc*nLoc {
		return fmt.Errorf("fox: C segment %d != %dx%d", gc.LenAt(me), mLoc, nLoc)
	}

	c.Barrier()
	maxK := kChunks[0].N
	aBuf := c.LocalBuf(mLoc * maxK)
	bBufs := [2]rt.Buffer{c.LocalBuf(maxK * nLoc), c.LocalBuf(maxK * nLoc)}

	// B starts in place: copy my stored block into the rolling buffer.
	myKB := kChunks[i].N
	c.Pack(rt.Mat{Buf: c.Local(gb), LD: nLoc, Rows: myKB, Cols: nLoc}, bBufs[0], 0)

	rowGroup := g.RowRanks(i)
	up := g.Rank((i+p-1)%p, j)
	down := g.Rank((i+1)%p, j)
	cLocal := c.Local(gc)
	cur := 0
	wroteC := false
	for s := 0; s < p; s++ {
		// Diagonal owner of this step's A panel in my row.
		t := (i + s) % p
		w := kChunks[t].N
		root := g.Rank(i, t)
		if me == root && mLoc > 0 && w > 0 {
			// I am (i, t), so my stored A block is exactly the panel.
			c.Pack(rt.Mat{Buf: c.Local(ga), LD: w, Rows: mLoc, Cols: w}, aBuf, 0)
		}
		if mLoc > 0 && w > 0 {
			mp.RingBcast(c, root, rowGroup, aBuf, 0, mLoc*w, tagBcast+s%8)
		}
		// The B block currently held rolls with the step: at step s it is
		// B((i+s) mod p, j) — exactly the k-chunk the A panel needs.
		if mLoc > 0 && nLoc > 0 && w > 0 {
			beta := 1.0
			if !wroteC {
				beta = 0
				wroteC = true
			}
			c.Gemm(1,
				rt.Mat{Buf: aBuf, LD: w, Rows: mLoc, Cols: w},
				rt.Mat{Buf: bBufs[cur], LD: nLoc, Rows: w, Cols: nLoc},
				beta,
				rt.Mat{Buf: cLocal, LD: nLoc, Rows: mLoc, Cols: nLoc})
		}
		if s == p-1 {
			break
		}
		// Roll B upward.
		nxt := 1 - cur
		wNext := kChunks[(i+s+1)%p].N
		mp.Sendrecv(c,
			up, tagRoll+s%2, bBufs[cur], 0, w*nLoc,
			down, tagRoll+s%2, bBufs[nxt], 0, wNext*nLoc)
		cur = nxt
	}
	if mLoc > 0 && nLoc > 0 && !wroteC {
		c.Gemm(1,
			rt.Mat{Buf: cLocal, LD: nLoc, Rows: mLoc, Cols: 0},
			rt.Mat{Buf: cLocal, LD: nLoc, Rows: 0, Cols: nLoc},
			0,
			rt.Mat{Buf: cLocal, LD: nLoc, Rows: mLoc, Cols: nLoc})
	}
	c.Barrier()
	return nil
}
