// Package algs is the algorithm table: for SRUMMA and the four
// message-passing baselines the paper compares it with (pdgemm, SUMMA,
// Cannon, Fox) it is the one place that says where an algorithm puts its
// operands, which options reach it, and how its result comes back. Every
// front end resolves its row here — the library's Cluster.Multiply on the
// real engine, the simulator behind every figure (bench.RunMatmul,
// srumma.Simulate), srumma-trace on either engine, ga's MatMul and the
// serving job body (internal/job) — so every engine places and runs exactly
// the same code.
//
// It sits beside internal/driver, whose placement helpers it calls, rather
// than inside it: the algorithm packages' own tests place operands through
// driver, so driver cannot import them.
package algs

import (
	"fmt"

	"srumma/internal/cannon"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/fox"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/machine"
	"srumma/internal/mat"
	"srumma/internal/pdgemm"
	"srumma/internal/rt"
	"srumma/internal/summa"
)

// The table's algorithm names.
const (
	SRUMMA = "srumma"
	Pdgemm = "pdgemm"
	SUMMA  = "summa"
	Cannon = "cannon"
	Fox    = "fox"
)

// Names lists the table's rows.
var Names = []string{SRUMMA, Pdgemm, SUMMA, Cannon, Fox}

// Options are every knob a row forwards: SRUMMA's core.Options (its Case
// reaches every algorithm), plus the panel width of the SUMMA and pdgemm
// baselines. A row ignores the fields that are not its own, except Scale,
// which the baselines refuse.
type Options struct {
	core.Options
	NB int
	// Scale, when set, makes the product the full dgemm form
	// C = Alpha·op(A)·op(B) + Beta·C; nil is the plain product.
	Scale *Scale
	// Hier runs SRUMMA as its two-level variant (internal/hier), one group
	// per shared-memory domain of the ctx's topology, under FlavorDirect
	// only.
	Hier bool
}

// Scale holds the dgemm scalars alpha and beta.
type Scale struct{ Alpha, Beta float64 }

// FlavorFor picks the shared-memory flavor the paper prescribes for a
// modeled platform: direct access where remote memory is cacheable,
// copy-based where it is not (§3.2). The real engine's shared memory is
// cacheable: FlavorDirect.
func FlavorFor(p machine.Profile) core.Flavor {
	if p.DomainSpansMachine && !p.RemoteCacheable {
		return core.FlavorCopy
	}
	return core.FlavorDirect
}

// Row is one algorithm resolved for a grid, dims and options.
type Row struct {
	a, b, c layout
	// bind, set for SRUMMA, places the caller's operands and result where
	// they lie; the ranks then compute the result in place.
	bind     func(c rt.Ctx, a, b, out *mat.Matrix) (ga, gb, gc rt.Global)
	multiply func(c rt.Ctx, ga, gb, gc rt.Global) error
}

// Resolve returns the row of the named algorithm ("" is SRUMMA). The
// baselines are refused here on a Scale other than the plain product, and
// Cannon and Fox on a transposed case or a non-square grid, before any rank
// runs.
func Resolve(name string, g *grid.Grid, d core.Dims, o Options) (*Row, error) {
	if name == "" || name == SRUMMA {
		return srumma(g, d, o), nil
	}
	if o.Scale != nil && *o.Scale != (Scale{Alpha: 1}) {
		return nil, fmt.Errorf("srumma: %s supports alpha 1, beta 0 only", name)
	}
	switch name {
	case SUMMA:
		so := summa.Options{Case: o.Case, NB: o.NB}
		da, db, dc := summa.Dists(g, d, o.Case)
		return &Row{a: block{da}, b: block{db}, c: block{dc},
			multiply: func(c rt.Ctx, ga, gb, gc rt.Global) error { return summa.Multiply(c, g, d, so, ga, gb, gc) },
		}, nil
	case Pdgemm:
		po := pdgemm.Options{Case: o.Case, NB: o.NB}
		da, db, dc, err := pdgemm.Dists(g, d, o.Case, o.NB)
		if err != nil {
			return nil, err
		}
		return &Row{a: cyclic{da}, b: cyclic{db}, c: cyclic{dc},
			multiply: func(c rt.Ctx, ga, gb, gc rt.Global) error { return pdgemm.Multiply(c, g, d, po, ga, gb, gc) },
		}, nil
	case Cannon, Fox:
		if o.Case != core.NN {
			return nil, fmt.Errorf("srumma: %s supports C=AB only", name)
		}
		if g.P != g.Q {
			return nil, fmt.Errorf("%s: requires a square grid, got %dx%d", name, g.P, g.Q)
		}
		dists, mul := cannon.Dists, cannon.Multiply
		if name == Fox {
			dists, mul = fox.Dists, fox.Multiply
		}
		da, db, dc := dists(g, d)
		return &Row{a: block{da}, b: block{db}, c: block{dc},
			multiply: func(c rt.Ctx, ga, gb, gc rt.Global) error { return mul(c, g, d, ga, gb, gc) },
		}, nil
	}
	return nil, fmt.Errorf("srumma: unknown algorithm %q", name)
}

// srumma is the SRUMMA row, flat or two-level: both run the same task lists
// over the same distributions, and the two-level variant only changes how
// the outer panels move.
func srumma(g *grid.Grid, d core.Dims, o Options) *Row {
	sc := Scale{Alpha: 1}
	if o.Scale != nil {
		sc = *o.Scale
	}
	da, db, dc := core.Dists(g, d, o.Case)
	return &Row{a: block{da}, b: block{db}, c: block{dc},
		bind: func(c rt.Ctx, a, b, out *mat.Matrix) (ga, gb, gc rt.Global) {
			ga, gb = driver.Bind(c, da, a), driver.Bind(c, db, b)
			if out == nil {
				return ga, gb, driver.AllocBlock(c, dc)
			}
			return ga, gb, driver.Bind(c, dc, out)
		},
		multiply: func(c rt.Ctx, ga, gb, gc rt.Global) error {
			if !o.Hier {
				return core.MultiplyEx(c, g, d, o.Options, sc.Alpha, sc.Beta, ga, gb, gc)
			}
			return hier.MultiplyEx(c, hier.From(c.Topo(), g), d, hier.Options{Options: o.Options}, sc.Alpha, sc.Beta, ga, gb, gc)
		},
	}
}

// Alloc allocates the three operands in A, B, C order and loads nothing:
// the placement of callers without operands (the simulator, srumma-trace),
// whose virtual time and byte counts are those of exactly this sequence.
// Collective.
func (r *Row) Alloc(c rt.Ctx) (ga, gb, gc rt.Global) {
	return r.a.alloc(c), r.b.alloc(c), r.c.alloc(c)
}

// InPlace reports whether Place binds the result, so that the ranks compute
// it in place (SRUMMA); otherwise it comes back through ReadBack and Gather.
func (r *Row) InPlace() bool { return r.bind != nil }

// Place makes the stored operands a and b and the result out distributed.
// SRUMMA binds all three where they lie (driver.Bind), or allocates the
// result when out is nil; the baselines, whose segment-length checks demand
// tight blocks, allocate and load A and B and ignore out. Collective.
func (r *Row) Place(c rt.Ctx, a, b, out *mat.Matrix) (ga, gb, gc rt.Global) {
	if r.bind != nil {
		return r.bind(c, a, b, out)
	}
	ga, gb, gc = r.Alloc(c)
	r.a.load(c, ga, a)
	r.b.load(c, gb, b)
	return ga, gb, gc
}

// LoadC writes this rank's part of m, the whole initial C a nonzero beta
// scales, into the placed result.
func (r *Row) LoadC(c rt.Ctx, gc rt.Global, m *mat.Matrix) { r.c.load(c, gc, m) }

// RestoreC writes data, this rank's block of the result as ReadBack returned
// it, back into the placed result: the partial block of an attempt that is
// resumed.
func (r *Row) RestoreC(c rt.Ctx, gc rt.Global, data []float64) {
	rows, cols := r.c.shape(c.Rank())
	driver.WriteBlock(c, gc, mat.FromData(rows, cols, data))
}

// Multiply runs the algorithm over placed operands. Collective.
func (r *Row) Multiply(c rt.Ctx, ga, gb, gc rt.Global) error { return r.multiply(c, ga, gb, gc) }

// ReadBack returns this rank's block of the result, tight. A caller whose
// result Place bound has it where it lies already.
func (r *Row) ReadBack(c rt.Ctx, gc rt.Global) *mat.Matrix { return r.c.store(c, gc) }

// Gather returns out when Place bound it (the ranks computed the result in
// place), and otherwise assembles the result from the ranks' ReadBack
// blocks.
func (r *Row) Gather(out *mat.Matrix, blocks []*mat.Matrix) (*mat.Matrix, error) {
	if out != nil && r.bind != nil {
		return out, nil
	}
	return r.c.Gather(blocks)
}

// layout is one operand's distribution: the regular 2-D block of SRUMMA,
// SUMMA, Cannon and Fox, or pdgemm's block-cyclic one.
type layout interface {
	alloc(c rt.Ctx) rt.Global
	load(c rt.Ctx, g rt.Global, m *mat.Matrix)
	store(c rt.Ctx, g rt.Global) *mat.Matrix
	shape(rank int) (rows, cols int)
	Gather(blocks []*mat.Matrix) (*mat.Matrix, error)
}

type block struct{ *grid.BlockDist }

func (l block) alloc(c rt.Ctx) rt.Global                  { return driver.AllocBlock(c, l.BlockDist) }
func (l block) load(c rt.Ctx, g rt.Global, m *mat.Matrix) { driver.LoadBlock(c, l.BlockDist, g, m) }
func (l block) store(c rt.Ctx, g rt.Global) *mat.Matrix   { return driver.StoreBlock(c, l.BlockDist, g) }
func (l block) shape(rank int) (rows, cols int)           { return l.LocalShape(rank) }

type cyclic struct{ *grid.CyclicDist }

func (l cyclic) alloc(c rt.Ctx) rt.Global                  { return driver.AllocCyclic(c, l.CyclicDist) }
func (l cyclic) load(c rt.Ctx, g rt.Global, m *mat.Matrix) { driver.LoadCyclic(c, l.CyclicDist, g, m) }
func (l cyclic) shape(rank int) (rows, cols int)           { return l.LocalShape(rank) }
func (l cyclic) store(c rt.Ctx, g rt.Global) *mat.Matrix {
	return driver.StoreCyclic(c, l.CyclicDist, g)
}
