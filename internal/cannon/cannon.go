// Package cannon implements Cannon's algorithm (1969), the classic
// message-passing matrix multiplication whose algorithmic efficiency SRUMMA
// matches (paper §2): after an initial skew that aligns blocks, the grid
// performs p steps of local multiply followed by a circular shift of A
// leftward and B upward. It requires a square process grid. The paper uses
// Cannon as the analytic reference point for the isoefficiency comparison;
// here it is also a runnable baseline.
package cannon

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
	tagSkewA  = 8300
	tagSkewB  = 8301
	tagShiftA = 8310
	tagShiftB = 8311
)

// Multiply runs Cannon's algorithm collectively: C = A B (NN only) on a
// square p x p grid. C is overwritten.
func Multiply(c rt.Ctx, g *grid.Grid, d core.Dims, ga, gb, gc rt.Global) error {
	if g.P != g.Q {
		return fmt.Errorf("cannon: requires a square grid, got %dx%d", g.P, g.Q)
	}
	if d.M <= 0 || d.N <= 0 || d.K <= 0 {
		return fmt.Errorf("cannon: dimensions %+v must be positive", d)
	}
	if g.Size() != c.Size() {
		return fmt.Errorf("cannon: grid needs %d ranks, runtime has %d", g.Size(), c.Size())
	}
	p := g.P
	da, db, _ := Dists(g, d)
	me := c.Rank()
	i, j := g.Coords(me)
	mLoc := da.RowChunks[i].N
	nLoc := db.ColChunks[j].N
	kChunks := da.ColChunks // == db.RowChunks on a square grid
	if gc.LenAt(me) != mLoc*nLoc {
		return fmt.Errorf("cannon: C segment %d != %dx%d", gc.LenAt(me), mLoc, nLoc)
	}

	c.Barrier()
	maxK := kChunks[0].N
	bufA := [2]rt.Buffer{c.LocalBuf(mLoc * maxK), c.LocalBuf(mLoc * maxK)}
	bufB := [2]rt.Buffer{c.LocalBuf(maxK * nLoc), c.LocalBuf(maxK * nLoc)}

	// kAt returns the k-chunk index held at (i, j) after s shifts.
	kAtA := func(s int) int { return (j + i + s) % p }
	kAtB := func(s int) int { return (i + j + s) % p }

	// Initial skew: my stored A(i,j) goes to the process whose post-skew
	// holding is A(i,j); I receive A(i, (j+i) mod p) from its owner.
	if p > 1 {
		aDst := g.Rank(i, ((j-i)%p+p)%p)
		aSrc := g.Rank(i, kAtA(0))
		mp.Sendrecv(c,
			aDst, tagSkewA, c.Local(ga), 0, mLoc*kChunks[j].N,
			aSrc, tagSkewA, bufA[0], 0, mLoc*kChunks[kAtA(0)].N)
		bDst := g.Rank(((i-j)%p+p)%p, j)
		bSrc := g.Rank(kAtB(0), j)
		mp.Sendrecv(c,
			bDst, tagSkewB, c.Local(gb), 0, kChunks[i].N*nLoc,
			bSrc, tagSkewB, bufB[0], 0, kChunks[kAtB(0)].N*nLoc)
	} else {
		// Single process: "skew" is the identity; copy via Pack.
		c.Pack(rt.Mat{Buf: c.Local(ga), LD: d.K, Rows: d.M, Cols: d.K}, bufA[0], 0)
		c.Pack(rt.Mat{Buf: c.Local(gb), LD: d.N, Rows: d.K, Cols: d.N}, bufB[0], 0)
	}

	cLocal := c.Local(gc)
	cur := 0
	wroteC := false
	left := g.Rank(i, (j+p-1)%p)
	right := g.Rank(i, (j+1)%p)
	up := g.Rank((i+p-1)%p, j)
	down := g.Rank((i+1)%p, j)
	for s := 0; s < p; s++ {
		w := kChunks[kAtA(s)].N
		if mLoc > 0 && nLoc > 0 && w > 0 {
			beta := 1.0
			if !wroteC {
				beta = 0
				wroteC = true
			}
			c.Gemm(1,
				rt.Mat{Buf: bufA[cur], LD: w, Rows: mLoc, Cols: w},
				rt.Mat{Buf: bufB[cur], LD: nLoc, Rows: w, Cols: nLoc},
				beta,
				rt.Mat{Buf: cLocal, LD: nLoc, Rows: mLoc, Cols: nLoc})
		}
		if s == p-1 {
			break
		}
		// Shift A left, B up; receive the next blocks into the spare
		// buffers.
		nxt := 1 - cur
		wNext := kChunks[kAtA(s+1)].N
		mp.Sendrecv(c,
			left, tagShiftA+2*(s%2), bufA[cur], 0, mLoc*w,
			right, tagShiftA+2*(s%2), bufA[nxt], 0, mLoc*wNext)
		wNextB := kChunks[kAtB(s+1)].N
		mp.Sendrecv(c,
			up, tagShiftB+2*(s%2), bufB[cur], 0, w*nLoc,
			down, tagShiftB+2*(s%2), bufB[nxt], 0, wNextB*nLoc)
		cur = nxt
	}
	// Over the p steps each rank cycles through every k-chunk, and for K > 0
	// (validated above) at least one chunk is non-empty, so every rank with a
	// local C tile has written it (beta=0 on its first gemm) by this point.
	c.Barrier()
	return nil
}
