// Package srumma is a Go reproduction of SRUMMA (Krishnan & Nieplocha,
// IPDPS 2004): a parallel dense matrix multiplication built on one-sided
// remote memory access and direct shared-memory access instead of message
// passing, with Cannon-class algorithmic efficiency.
//
// The package offers two ways to run the algorithm:
//
//   - A real execution engine (Cluster): SPMD "processes" are goroutines in
//     one address space communicating through an ARMCI-like one-sided
//     runtime. Results are real numbers — this is the engine for using the
//     library and for correctness work.
//
//   - A virtual-time simulation engine (Simulate): the same algorithm code
//     runs against models of the paper's four platforms (Linux/Myrinet
//     cluster, IBM SP, Cray X1, SGI Altix), reproducing the paper's
//     performance figures on hardware that no longer exists. See
//     EXPERIMENTS.md for the paper-vs-model comparison.
//
// The message-passing baselines the paper compares against (ScaLAPACK-style
// pdgemm, SUMMA, Cannon's and Fox's algorithms) are implemented too and
// selectable via the Algorithm option.
package srumma

import (
	"context"
	"fmt"
	"slices"

	"srumma/internal/algs"
	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// Matrix is a dense row-major matrix (see its methods for element access,
// views and comparisons).
type Matrix = mat.Matrix

// NewMatrix returns a zero r x c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// RandomMatrix returns an r x c matrix with deterministic pseudo-random
// entries in [-1, 1).
func RandomMatrix(r, c int, seed uint64) *Matrix { return mat.Random(r, c, seed) }

// Case selects the transpose variant of C = op(A) op(B).
type Case = core.Case

// Transpose cases.
const (
	NN = core.NN // C = A B
	TN = core.TN // C = Aᵀ B
	NT = core.NT // C = A Bᵀ
	TT = core.TT // C = Aᵀ Bᵀ
)

// Algorithm names.
const (
	AlgSRUMMA = algs.SRUMMA
	AlgPdgemm = algs.Pdgemm
	AlgSUMMA  = algs.SUMMA
	AlgCannon = algs.Cannon
	AlgFox    = algs.Fox
)

// MultiplyOptions configure Cluster.Multiply. The zero value runs SRUMMA on
// C = A B.
type MultiplyOptions struct {
	Case Case
	// Algorithm is one of AlgSRUMMA (default), AlgPdgemm, AlgSUMMA,
	// AlgCannon or AlgFox (Cannon and Fox require a square process grid
	// and Case NN).
	Algorithm string
	// NB is the panel/tile width for the SUMMA/pdgemm baselines.
	NB int
	// SRUMMA ablations (see the paper §3.1): disable the diagonal-shift
	// task order, the shared-memory-first ordering, or the double-buffered
	// pipeline.
	NoDiagonalShift bool
	NoSharedFirst   bool
	SingleBuffer    bool
	// KernelThreads sets how many goroutines each rank's local dgemm may
	// use (SRUMMA only). Zero keeps the engine's oversubscription guard:
	// GOMAXPROCS / nprocs workers per rank, at least one, so nprocs ranks
	// multiplying at once do not oversubscribe the machine.
	KernelThreads int
	// Context, when non-nil, bounds the multiply (SRUMMA only): if it is
	// cancelled or its deadline passes, every process stops between tasks,
	// releases its pooled scratch, and Multiply returns ErrCancelled with C
	// left partially updated. The engine stays usable afterwards.
	Context context.Context
}

// ErrCancelled is returned by Multiply when MultiplyOptions.Context is
// cancelled mid-flight.
var ErrCancelled = core.ErrCancelled

// Report summarizes one Multiply run.
type Report struct {
	Seconds float64 // wall time of the slowest process through the multiply
	GFLOPS  float64 // aggregate 2MNK / time / 1e9

	// Communication accounting summed over processes.
	BytesShared int64 // one-sided traffic within shared-memory domains
	BytesRemote int64 // one-sided traffic between domains
	Messages    int64 // two-sided messages (baselines)
}

// Cluster is a real execution engine: nprocs SPMD goroutine processes
// grouped into shared-memory domains of procsPerNode ranks (or one
// machine-wide domain).
type Cluster struct {
	topo rt.Topology
	g    *grid.Grid
	team *armci.Team
}

// NewCluster creates an engine with nprocs processes, procsPerNode ranks
// per node, and optionally one machine-wide shared-memory domain (the
// paper's SGI Altix / Cray X1 configuration).
func NewCluster(nprocs, procsPerNode int, sharedMachine bool) (*Cluster, error) {
	return newCluster(nprocs, procsPerNode, sharedMachine, grid.Square)
}

// NewClusterFor is NewCluster with the process grid chosen for an m x n
// result shape instead of defaulting to the most-square factorization:
// skinny results get stretched grids that minimize per-process
// communication.
func NewClusterFor(nprocs, procsPerNode int, sharedMachine bool, m, n int) (*Cluster, error) {
	return newCluster(nprocs, procsPerNode, sharedMachine, func(np int) (*grid.Grid, error) { return grid.BestFor(np, m, n) })
}

func newCluster(nprocs, procsPerNode int, sharedMachine bool, shape func(nprocs int) (*grid.Grid, error)) (*Cluster, error) {
	topo := rt.Topology{NProcs: nprocs, ProcsPerNode: procsPerNode, DomainSpansMachine: sharedMachine}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	g, err := shape(nprocs)
	if err != nil {
		return nil, err
	}
	return &Cluster{topo: topo, g: g}, nil
}

// Persist switches the cluster to a persistent engine team: its SPMD rank
// goroutines are spawned once and parked between Multiply calls, keeping
// size-class buffer pools and kernel-thread configuration warm. Results are
// bit-identical to the default one-shot mode; what changes is per-call
// overhead (no spawn/teardown, zero steady-state allocations in the
// buffer-pool cycle). Call Close when done.
func (cl *Cluster) Persist() error {
	if cl.team != nil {
		return nil
	}
	tm, err := armci.NewTeam(cl.topo)
	if err != nil {
		return err
	}
	cl.team = tm
	return nil
}

// Persistent reports whether a persistent engine team is active.
func (cl *Cluster) Persistent() bool { return cl.team != nil }

// Close drains the persistent engine team, if any. A rank that fails to
// park within the grace period is reported as a *WatchdogError-wrapped
// leak. Close is a no-op for one-shot clusters; the cluster reverts to
// one-shot mode afterwards either way.
func (cl *Cluster) Close() error {
	if cl.team == nil {
		return nil
	}
	err := cl.team.Close()
	cl.team = nil
	return err
}

// Procs returns the process count.
func (cl *Cluster) Procs() int { return cl.topo.NProcs }

// GridShape returns the process grid dimensions.
func (cl *Cluster) GridShape() (p, q int) { return cl.g.P, cl.g.Q }

// Multiply computes C = op(A) op(B) in parallel and returns C with a
// performance report. A and B are the STORED operands: for Case TN pass A
// as the k x m matrix that will be used transposed, and so on. SRUMMA reads
// A and B where they lie — views (Stride > Cols) included — so neither may
// be written until Multiply returns.
func (cl *Cluster) Multiply(a, b *Matrix, opts MultiplyOptions) (*Matrix, *Report, error) {
	d, err := cl.dims(a, b, opts.Case)
	if err != nil {
		return nil, nil, err
	}
	ao := algs.Options{NB: opts.NB}
	ao.Options = core.Options{
		Case:            opts.Case,
		Flavor:          core.FlavorDirect, // real shared memory is cacheable
		NoDiagonalShift: opts.NoDiagonalShift,
		NoSharedFirst:   opts.NoSharedFirst,
		SingleBuffer:    opts.SingleBuffer,
		KernelThreads:   opts.KernelThreads,
	}
	if opts.Context != nil {
		ao.Cancel = opts.Context.Done()
	}
	row, err := algs.Resolve(opts.Algorithm, cl.g, d, ao)
	if err != nil {
		return nil, nil, err
	}
	// The ranks share this address space, so SRUMMA uses A and B where they
	// lie and computes C in place: nothing moves but the blocks the
	// algorithm itself fetches.
	var out *Matrix
	if row.InPlace() {
		out = NewMatrix(d.M, d.N)
	}
	n := cl.topo.NProcs
	blocks := make([]*Matrix, n)
	rankErrs := make([]error, n)
	durations := make([]float64, n)
	body := func(c rt.Ctx) {
		me := c.Rank()
		ga, gb, gc := row.Place(c, a, b, out)
		t0 := c.Now()
		rankErrs[me] = row.Multiply(c, ga, gb, gc)
		durations[me] = c.Now() - t0
		if out == nil {
			blocks[me] = row.ReadBack(c, gc)
		}
	}
	sum, err := cl.run(body)
	if err != nil {
		return nil, nil, err
	}
	for _, rerr := range rankErrs {
		if rerr != nil {
			return nil, nil, rerr
		}
	}
	cMat, err := row.Gather(out, blocks)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Seconds:     slices.Max(durations),
		BytesShared: sum.BytesShared, BytesRemote: sum.BytesRemote, Messages: sum.Msgs,
	}
	if rep.Seconds > 0 {
		rep.GFLOPS = 2 * float64(d.M) * float64(d.N) * float64(d.K) / rep.Seconds / 1e9
	}
	return cMat, rep, nil
}

// run executes body on the persistent or one-shot engine and returns the
// ranks' accounting, summed.
func (cl *Cluster) run(body func(rt.Ctx)) (sum rt.Stats, err error) {
	var stats []*rt.Stats
	if cl.team != nil {
		stats, err = cl.team.Run(body)
	} else {
		stats, err = armci.Run(cl.topo, body)
	}
	if err != nil {
		return sum, err
	}
	for _, s := range stats {
		sum.Add(s)
	}
	return sum, nil
}

// dims derives (M, N, K) from the stored operand shapes and validates
// conformance.
func (cl *Cluster) dims(a, b *Matrix, cs Case) (core.Dims, error) {
	m, k := a.Rows, a.Cols
	if cs.TransA() {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if cs.TransB() {
		kb, n = b.Cols, b.Rows
	}
	if k != kb {
		return core.Dims{}, fmt.Errorf("srumma: inner dimensions disagree: op(A) is %dx%d, op(B) is %dx%d", m, k, kb, n)
	}
	d := core.Dims{M: m, N: n, K: k}
	return d, d.Validate()
}
