// Package ga is a miniature Global Arrays toolkit built on the SRUMMA
// runtime. Global Arrays is the distributed-array library the paper's
// algorithm shipped in (it became ga_dgemm, the matrix multiplication under
// NWChem), so this package shows SRUMMA in its native habitat: collectively
// created, block-distributed two-dimensional arrays with one-sided
// Put/Get/Acc on arbitrary rectangular patches, direct access to the local
// block, and matrix multiplication that runs SRUMMA underneath.
//
// Programs are SPMD: Run starts one goroutine process per rank and every
// rank executes the same body against its Env. Array operations marked
// collective must be called by all ranks; one-sided operations may be
// called by any rank at any time between Syncs.
package ga

import (
	"fmt"

	"srumma/internal/algs"
	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// Matrix is the dense local matrix type used for patches.
type Matrix = mat.Matrix

// NewMatrix returns a zero r x c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// Env is the per-process handle passed to the SPMD body.
type Env struct {
	ctx rt.Ctx
	g   *grid.Grid
}

// Run executes body once per rank on the real engine: nprocs processes,
// procsPerNode per shared-memory node (or one machine-wide domain).
func Run(nprocs, procsPerNode int, sharedMachine bool, body func(*Env)) error {
	topo := rt.Topology{NProcs: nprocs, ProcsPerNode: procsPerNode, DomainSpansMachine: sharedMachine}
	if err := topo.Validate(); err != nil {
		return err
	}
	g, err := grid.Square(nprocs)
	if err != nil {
		return err
	}
	_, err = armci.Run(topo, func(c rt.Ctx) {
		body(&Env{ctx: c, g: g})
	})
	return err
}

// Me returns this process's rank.
func (e *Env) Me() int { return e.ctx.Rank() }

// NProcs returns the number of processes.
func (e *Env) NProcs() int { return e.ctx.Size() }

// Sync barriers all processes (GA_Sync).
func (e *Env) Sync() { e.ctx.Barrier() }

// Array is a block-distributed dense rows x cols array of float64.
type Array struct {
	e          *Env
	name       string
	rows, cols int
	dist       *grid.BlockDist
	glob       rt.Global
}

// Create collectively allocates a distributed rows x cols array
// (GA_Create). The name is used in error messages.
func (e *Env) Create(name string, rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("ga: Create(%q, %d, %d): dimensions must be positive", name, rows, cols)
	}
	dist := grid.NewBlockDist(e.g, rows, cols)
	r, c := dist.LocalShape(e.ctx.Rank())
	glob := e.ctx.Malloc(r * c)
	return &Array{e: e, name: name, rows: rows, cols: cols, dist: dist, glob: glob}, nil
}

// Destroy collectively releases the array (GA_Destroy).
func (a *Array) Destroy() { a.e.ctx.Free(a.glob) }

// Dims returns the global shape.
func (a *Array) Dims() (rows, cols int) { return a.rows, a.cols }

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// checkPatch validates a patch against the global shape.
func (a *Array) checkPatch(op string, i, j, r, c int) error {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > a.rows || j+c > a.cols {
		return fmt.Errorf("ga: %s on %q: patch (%d,%d)+%dx%d outside %dx%d",
			op, a.name, i, j, r, c, a.rows, a.cols)
	}
	return nil
}

// patchPiece is the overlap of a requested patch with one owner's block:
// global origin (GI, GJ), shape R x C, the owner rank and the region's
// placement inside the owner's block.
type patchPiece struct {
	owner        int
	gi, gj, r, c int
	blockOff, ld int // element offset and leading dimension in the block
}

// pieces enumerates the owner-block overlaps of a patch in a deterministic
// order.
func (a *Array) pieces(i, j, r, c int) []patchPiece {
	var out []patchPiece
	for pr := 0; pr < a.dist.G.P; pr++ {
		rc := a.dist.RowChunks[pr]
		ri := max(i, rc.Lo)
		rhi := min(i+r, rc.Lo+rc.N)
		if rhi <= ri {
			continue
		}
		for pc := 0; pc < a.dist.G.Q; pc++ {
			cc := a.dist.ColChunks[pc]
			cj := max(j, cc.Lo)
			chi := min(j+c, cc.Lo+cc.N)
			if chi <= cj {
				continue
			}
			out = append(out, patchPiece{
				owner:    a.dist.G.Rank(pr, pc),
				gi:       ri,
				gj:       cj,
				r:        rhi - ri,
				c:        chi - cj,
				blockOff: (ri-rc.Lo)*cc.N + (cj - cc.Lo),
				ld:       cc.N,
			})
		}
	}
	return out
}

// Put writes matrix m into the array at global position (i, j) (one-sided,
// NGA_Put). It may span any number of owner blocks.
func (a *Array) Put(i, j int, m *Matrix) error {
	if err := a.checkPatch("Put", i, j, m.Rows, m.Cols); err != nil {
		return err
	}
	ctx := a.e.ctx
	for _, p := range a.pieces(i, j, m.Rows, m.Cols) {
		// Stage the sub-patch into a tight scratch buffer, then a strided
		// put places it in the owner's block.
		scratch := ctx.LocalBuf(p.r * p.c)
		buf := make([]float64, p.r*p.c)
		mat.PackInto(buf, m, p.gi-i, p.gj-j, p.r, p.c)
		ctx.WriteBuf(scratch, 0, buf)
		ctx.Wait(ctx.NbPutSub(scratch, 0, a.glob, p.owner, p.blockOff, p.ld, p.r, p.c))
	}
	return nil
}

// Get reads the r x c patch at global position (i, j) into a new matrix
// (one-sided, NGA_Get).
func (a *Array) Get(i, j, r, c int) (*Matrix, error) {
	if err := a.checkPatch("Get", i, j, r, c); err != nil {
		return nil, err
	}
	ctx := a.e.ctx
	out := mat.New(r, c)
	for _, p := range a.pieces(i, j, r, c) {
		scratch := ctx.LocalBuf(p.r * p.c)
		ctx.Wait(ctx.NbGetSub(a.glob, p.owner, p.blockOff, p.ld, p.r, p.c, scratch, 0))
		if data := ctx.ReadBuf(scratch, 0, p.r*p.c); data != nil {
			mat.UnpackFrom(out, data, p.gi-i, p.gj-j, p.r, p.c)
		}
	}
	return out, nil
}

// Acc accumulates alpha*m into the array at (i, j) (one-sided, NGA_Acc).
// Concurrent Accs to overlapping regions from different ranks are safe.
func (a *Array) Acc(i, j int, alpha float64, m *Matrix) error {
	if err := a.checkPatch("Acc", i, j, m.Rows, m.Cols); err != nil {
		return err
	}
	ctx := a.e.ctx
	for _, p := range a.pieces(i, j, m.Rows, m.Cols) {
		scratch := ctx.LocalBuf(p.r * p.c)
		buf := make([]float64, p.r*p.c)
		mat.PackInto(buf, m, p.gi-i, p.gj-j, p.r, p.c)
		ctx.WriteBuf(scratch, 0, buf)
		// Accumulate row by row: the remote region is strided while Acc
		// operates on contiguous runs.
		for row := 0; row < p.r; row++ {
			ctx.Acc(alpha, scratch, row*p.c, p.c, a.glob, p.owner, p.blockOff+row*p.ld)
		}
	}
	return nil
}

// Fill sets every element to v (collective; includes a Sync).
func (a *Array) Fill(v float64) {
	r, c := a.dist.LocalShape(a.e.ctx.Rank())
	if r*c > 0 {
		buf := make([]float64, r*c)
		for i := range buf {
			buf[i] = v
		}
		a.e.ctx.WriteBuf(a.e.ctx.Local(a.glob), 0, buf)
	}
	a.e.Sync()
}

// LocalBlock returns a copy of this rank's block and its global origin
// (GA_Access semantics, by value: mutate the copy, then StoreLocal).
func (a *Array) LocalBlock() (m *Matrix, i, j int) {
	me := a.e.ctx.Rank()
	pr, pc := a.dist.G.Coords(me)
	r, c := a.dist.LocalShape(me)
	i, j = a.dist.BlockOrigin(pr, pc)
	m = mat.New(r, c)
	if data := a.e.ctx.ReadBuf(a.e.ctx.Local(a.glob), 0, r*c); data != nil {
		copy(m.Data, data)
	}
	return m, i, j
}

// StoreLocal writes m back as this rank's block (inverse of LocalBlock).
func (a *Array) StoreLocal(m *Matrix) error {
	r, c := a.dist.LocalShape(a.e.ctx.Rank())
	if m.Rows != r || m.Cols != c {
		return fmt.Errorf("ga: StoreLocal on %q: block is %dx%d, got %dx%d", a.name, r, c, m.Rows, m.Cols)
	}
	a.e.ctx.WriteBuf(a.e.ctx.Local(a.glob), 0, m.Clone().Data)
	return nil
}

// MatMul computes c = alpha*op(a)*op(b) + beta*c with SRUMMA (ga_dgemm).
// Collective. Shapes after op must conform with c.
func (c *Array) MatMul(transA, transB bool, alpha float64, a, b *Array, beta float64) error {
	if a.e != c.e || b.e != c.e {
		return fmt.Errorf("ga: MatMul arrays from different environments")
	}
	m, k := a.rows, a.cols
	if transA {
		m, k = a.cols, a.rows
	}
	kb, n := b.rows, b.cols
	if transB {
		kb, n = b.cols, b.rows
	}
	if k != kb || c.rows != m || c.cols != n {
		return fmt.Errorf("ga: MatMul %q=%q x %q: op shapes %dx%d * %dx%d -> %dx%d do not conform",
			c.name, a.name, b.name, m, k, kb, n, c.rows, c.cols)
	}
	var cs core.Case
	switch {
	case !transA && !transB:
		cs = core.NN
	case transA && !transB:
		cs = core.TN
	case !transA && transB:
		cs = core.NT
	default:
		cs = core.TT
	}
	// The arrays' block distributions are the SRUMMA row's, so the row runs
	// on them as they are.
	row, err := algs.Resolve(algs.SRUMMA, c.e.g, core.Dims{M: m, N: n, K: k}, algs.Options{
		Options: core.Options{Case: cs, Flavor: core.FlavorDirect},
		Scale:   &algs.Scale{Alpha: alpha, Beta: beta},
	})
	if err != nil {
		return err
	}
	return row.Multiply(c.e.ctx, a.glob, b.glob, c.glob)
}
