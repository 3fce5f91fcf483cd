// Package job is the serving job: the one body that turns an ipcrt.JobSpec
// into a GEMM on whatever engine a rank runs on. It sits above the engines,
// as the paper's ga_dgemm front end sits above ARMCI. The server's
// in-process teams call Run directly; worker processes of the multi-process
// engine reach it through the registration this package makes under "" at
// init, so every binary that launches or serves as a worker imports it. The
// body places and runs the algs SRUMMA row, flat or two-level, with the
// spec's alpha and beta: the serving path multiplies with the library's code.
package job

import (
	"fmt"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

func init() { ipcrt.Register("", ipcrt.Body{Validate: Validate, Run: Run}) }

// Validate checks, as an *ipcrt.SpecError, what the body would otherwise
// trip over mid-run on nprocs ranks.
func Validate(s *ipcrt.JobSpec, nprocs int) error {
	bad := func(format string, args ...any) error { return &ipcrt.SpecError{Msg: fmt.Sprintf(format, args...)} }
	d := core.Dims{M: s.M, N: s.N, K: s.K}
	if err := d.Validate(); err != nil {
		return bad("%v", err)
	}
	if s.Case < int(core.NN) || s.Case > int(core.TT) {
		return bad("transpose case %d", s.Case)
	}
	if s.Data && (len(s.A) != d.M*d.K || len(s.B) != d.K*d.N || s.Beta != 0 && len(s.CIn) != d.M*d.N) {
		return bad("inline A, B, C hold %d, %d, %d elements for %dx%dx%d with beta %g", len(s.A), len(s.B), len(s.CIn), d.M, d.N, d.K, s.Beta)
	}
	g, err := grid.Square(nprocs)
	if err != nil {
		return bad("%v", err)
	}
	dc := grid.NewBlockDist(g, d.M, d.N)
	for rank, p := range s.Prior {
		if rank < 0 || rank >= nprocs {
			return bad("salvage for rank %d of %d", rank, nprocs)
		}
		if r, c := dc.LocalShape(rank); len(p.C) != r*c {
			return bad("rank %d salvaged %d elements of a %dx%d block", rank, len(p.C), r, c)
		}
	}
	return nil
}

// Run executes spec on this rank and returns its block of C, or nil when the
// ranks computed C in place in spec.Out. It validates the spec, injects the
// spec's fault plan, states the kernel threads, places the operands (bound
// where they lie when the run has an Out, allocated otherwise), resumes from
// the rank's salvage or loads beta's C, and runs the row. When it panics
// mid-run with a ledger attached, the partial block and completion bitset
// go into salv (marked Salvaged) before the panic continues — the raw
// material of a resume, in this process or another.
//
// The three Globals stay allocated: a worker process frees them after the
// job so the coordinator can park the segments, while on the in-process
// engine a Free is a barrier that buys nothing.
func Run(c rt.Ctx, spec *ipcrt.JobSpec, salv *ipcrt.RankResult) (*mat.Matrix, error) {
	if err := Validate(spec, c.Size()); err != nil {
		return nil, err
	}
	if spec.Chaos != nil {
		plan, err := faults.NewPlan(*spec.Chaos, c.Size())
		if err != nil {
			return nil, err
		}
		c = faults.Inject(c, plan, nil)
	}
	// Stated unconditionally, not through core.Options (which forwards only
	// positive counts): persistent ranks keep the previous job's setting.
	if kt := rt.FindKernelTuner(c); kt != nil {
		kt.SetKernelThreads(spec.KernelThreads)
	}
	g, _ := grid.Square(c.Size()) // Validate accepted the rank count
	d, cs, me := core.Dims{M: spec.M, N: spec.N, K: spec.K}, core.Case(spec.Case), c.Rank()
	var jl *core.JobLedger
	if spec.UseLedger {
		jl = core.NewJobLedger(c.Size())
	}
	row, err := algs.Resolve(algs.SRUMMA, g, d, algs.Options{
		Options: core.Options{Case: cs, SingleBuffer: spec.SingleBuffer, NoDiagonalShift: spec.NoDiagonalShift,
			MaxTaskK: spec.MaxTaskK, Ledger: jl, ABFT: spec.ABFT, ABFTTol: spec.ABFTTol, Cancel: spec.Cancel},
		Scale: &algs.Scale{Alpha: spec.Alpha, Beta: spec.Beta},
		Hier:  spec.Hier, HierGroup: spec.HierGroup,
	})
	if err != nil {
		return nil, err
	}
	ga, gb, gc := row.Place(c, operand(spec, d.M, d.K, cs.TransA(), spec.A, 0), operand(spec, d.K, d.N, cs.TransB(), spec.B, 1), spec.Out)

	// A rank resumes only with all three pieces of its salvage (Validate
	// fitted the block); otherwise it restarts with an empty ledger.
	switch prior := spec.Prior[me]; {
	case jl != nil && len(prior.Bits) > 0 && prior.Tasks > 0:
		jl.RestoreRank(me, prior.Tasks, prior.Bits)
		row.RestoreC(c, gc, prior.C)
	case spec.Beta != 0:
		row.LoadC(c, gc, operand(spec, d.M, d.N, false, spec.CIn, 2))
	}

	if salv != nil && jl != nil {
		// Only the panic path salvages: a rank RETURNING an error (an
		// exhausted ABFT recompute) holds a corrupted accumulation for an
		// unmarked task, and resuming over it would double-add.
		defer func() {
			if p := recover(); p != nil {
				func() {
					defer func() { _ = recover() }() // a half-wedged engine must not mask p
					blk := row.ReadBack(c, gc)
					if bits, n := jl.RankBits(me); len(bits) > 0 && n > 0 {
						salv.C, salv.CRows, salv.CCols = blk.Data, blk.Rows, blk.Cols
						salv.LedgerBits, salv.LedgerTasks, salv.Salvaged = bits, n, true
					}
				}()
				panic(p)
			}
		}()
	}
	if err := row.Multiply(c, ga, gb, gc); err != nil {
		return nil, fmt.Errorf("rank %d: %w", me, err)
	}
	if spec.Out != nil {
		return nil, nil
	}
	return row.ReadBack(c, gc), nil
}

// operand is one whole stored matrix of the job, rows x cols before the
// transpose: the spec's inline data, or drawn from its seed plus the
// operand's offset (A 0, B 1, C 2).
func operand(spec *ipcrt.JobSpec, rows, cols int, trans bool, data []float64, seed uint64) *mat.Matrix {
	if trans {
		rows, cols = cols, rows
	}
	if spec.Data {
		return mat.FromData(rows, cols, data)
	}
	return mat.Random(rows, cols, spec.Seed+seed)
}
