// Package driver places operands: it turns the matrices a caller holds into
// the distributed Globals an algorithm multiplies, and back. It is on the
// path of every library call and distributed-route request, so how often an
// operand moves is decided here, from what the engine can do (DESIGN.md,
// "Operand placement"): Bind on an engine whose ranks share the caller's
// address space (rt.Adopter) uses the caller's memory where it lies — the
// paper's direct-access flavour applied to the operands themselves — and
// everywhere else, as for the message-passing baselines whose layouts
// demand tight segments, AllocBlock + LoadBlock copy each block in once and
// StoreBlock / BlockDist.Gather bring the result back.
package driver

import (
	"fmt"

	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// Bind makes m the distributed operand laid out by d. On an adopting engine
// every rank contributes its block of m where it lies — nothing is copied,
// and a bound result is computed in place; otherwise Bind allocates and
// loads. Collective.
func Bind(c rt.Ctx, d *grid.BlockDist, m *mat.Matrix) rt.Global {
	ad := rt.FindAdopter(c)
	if ad == nil {
		g := AllocBlock(c, d)
		LoadBlock(c, d, g, m)
		return g
	}
	return ad.Adopt(block(c, d, m, "Bind").Data, m.Stride)
}

// block returns this rank's block of the global matrix as a view, checking
// the matrix against the distribution.
func block(c rt.Ctx, d *grid.BlockDist, global *mat.Matrix, op string) *mat.Matrix {
	if global.Rows != d.Rows || global.Cols != d.Cols {
		panic(fmt.Sprintf("driver: %s matrix %dx%d vs distribution %dx%d",
			op, global.Rows, global.Cols, d.Rows, d.Cols))
	}
	pr, pc := d.G.Coords(c.Rank())
	i, j := d.BlockOrigin(pr, pc)
	r, cc := d.BlockShape(pr, pc)
	return global.View(i, j, r, cc)
}

// AllocBlock collectively allocates a Global matching a block distribution:
// each rank's segment is its (rows x cols) block, tight row-major.
func AllocBlock(c rt.Ctx, d *grid.BlockDist) rt.Global {
	r, cc := d.LocalShape(c.Rank())
	return c.Malloc(r * cc)
}

// AllocCyclic collectively allocates a Global matching a block-cyclic
// distribution.
func AllocCyclic(c rt.Ctx, d *grid.CyclicDist) rt.Global {
	r, cc := d.LocalShape(c.Rank())
	return c.Malloc(r * cc)
}

// LoadBlock writes this rank's block of the global matrix into its segment
// of g, each row straight from the matrix — one copy, no staging buffer. On
// the sim engine it is a size check only.
func LoadBlock(c rt.Ctx, d *grid.BlockDist, g rt.Global, global *mat.Matrix) {
	WriteBlock(c, g, block(c, d, global, "LoadBlock"))
}

// WriteBlock writes m, this rank's whole block, into its segment of g — the
// inverse of StoreBlock.
func WriteBlock(c rt.Ctx, g rt.Global, m *mat.Matrix) {
	seg, ld := c.Local(g), rt.SegLD(g, m.Cols)
	for row := 0; row < m.Rows && m.Cols > 0; row++ {
		c.WriteBuf(seg, row*ld, m.Data[row*m.Stride:row*m.Stride+m.Cols])
	}
}

// LoadCyclic writes this rank's block-cyclic local array of the global
// matrix into its segment of g.
func LoadCyclic(c rt.Ctx, d *grid.CyclicDist, g rt.Global, global *mat.Matrix) {
	if global.Rows != d.Rows || global.Cols != d.Cols {
		panic(fmt.Sprintf("driver: LoadCyclic matrix %dx%d vs distribution %dx%d",
			global.Rows, global.Cols, d.Rows, d.Cols))
	}
	pr, pc := d.G.Coords(c.Rank())
	lr, lc := d.LocalShape(c.Rank())
	buf := make([]float64, lr*lc)
	for i := 0; i < d.Rows; i++ {
		owner, li := grid.GlobalToLocal(i, d.NB, d.G.P)
		if owner != pr {
			continue
		}
		for j := 0; j < d.Cols; j++ {
			ownerC, lj := grid.GlobalToLocal(j, d.NB, d.G.Q)
			if ownerC != pc {
				continue
			}
			buf[li*lc+lj] = global.Data[i*global.Stride+j]
		}
	}
	c.WriteBuf(c.Local(g), 0, buf)
}

// StoreBlock reads this rank's segment of g back as a matrix (the local
// block). On the sim engine it returns a zero matrix of the right shape.
func StoreBlock(c rt.Ctx, d *grid.BlockDist, g rt.Global) *mat.Matrix {
	r, cc := d.LocalShape(c.Rank())
	ld := rt.SegLD(g, cc)
	if ld == cc {
		return readTight(c, g, r, cc)
	}
	out := mat.New(r, cc)
	for row := 0; row < r && cc > 0; row++ {
		copy(out.Data[row*cc:], c.ReadBuf(c.Local(g), row*ld, cc))
	}
	return out
}

// readTight wraps the engine's copy of this rank's tight r x cc segment as
// a matrix (the sim engine has no data: a zero matrix).
func readTight(c rt.Ctx, g rt.Global, r, cc int) *mat.Matrix {
	if data := c.ReadBuf(c.Local(g), 0, r*cc); data != nil {
		return &mat.Matrix{Rows: r, Cols: cc, Stride: cc, Data: data}
	}
	return mat.New(r, cc)
}

// StoreCyclic reads this rank's block-cyclic segment back as a local array.
func StoreCyclic(c rt.Ctx, d *grid.CyclicDist, g rt.Global) *mat.Matrix {
	r, cc := d.LocalShape(c.Rank())
	return readTight(c, g, r, cc)
}

// Collect is a test/example convenience: ranks deposit their local result
// blocks into a shared slice (indexed by rank, so concurrent writes are
// race-free) which the caller gathers after the run.
type Collect struct {
	Blocks []*mat.Matrix
}

// NewCollect sizes the collection for nprocs ranks.
func NewCollect(nprocs int) *Collect {
	return &Collect{Blocks: make([]*mat.Matrix, nprocs)}
}

// Deposit stores rank's block.
func (co *Collect) Deposit(c rt.Ctx, m *mat.Matrix) {
	co.Blocks[c.Rank()] = m
}
