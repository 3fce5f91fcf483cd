package ipcrt

import (
	"fmt"

	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/mat"
	"srumma/internal/mp"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// JobSpec is one SPMD job, serialized to every worker. Closures cannot
// cross a process boundary, so the multi-process engine dispatches jobs by
// value: the spec names the algorithm and its parameters, and RunBody —
// the one shared job body — reconstructs identical operands on every rank
// from the seed. Running the same spec through RunBody on the in-process
// armci engine (same topology) must produce bit-identical C blocks, which
// is exactly what the ipc-smoke gate asserts.
type JobSpec struct {
	// Problem shape: C (MxN) = alpha * op(A) op(B) + beta * C, contraction
	// length K, transpose case core.Case.
	M, N, K     int
	Case        int
	Alpha, Beta float64
	// Seed generates A (Seed), B (Seed+1) and, when Beta != 0, the initial
	// C (Seed+2) via mat.Random on every rank identically.
	Seed uint64
	// Data switches to inline operands (the serving path): A, B and — when
	// Beta != 0 — CIn carry the full row-major matrices, and every rank
	// packs its own block out of them instead of seed-generating.
	Data bool
	A    []float64 `json:",omitempty"`
	B    []float64 `json:",omitempty"`
	CIn  []float64 `json:",omitempty"`
	// UseLedger attaches a core.JobLedger so a crashing rank's completion
	// bitset rides back in its salvage; Prior restores per-rank state
	// salvaged from a failed attempt — a rank with an entry resumes
	// mid-job, every other rank restarts.
	UseLedger bool
	Prior     map[int]RankPrior `json:",omitempty"`
	// ABFT forwards Huang–Abraham block verification to core.Options.
	ABFT    bool
	ABFTTol float64
	// Executor knobs, forwarded to core.Options. KernelThreads is stated to
	// the engine on every job, 0 (the engine default) included: persistent
	// ranks keep the previous job's setting otherwise.
	SingleBuffer    bool
	NoDiagonalShift bool
	KernelThreads   int
	MaxTaskK        int
	// Cancel is the job's cancellation signal (core.Options.Cancel). A
	// channel cannot cross a process boundary, so only in-process runs of
	// the body see it; the cluster route checks its deadline before
	// submitting instead.
	Cancel <-chan struct{} `json:"-"`
	// Out is the M x N result of an in-process run: ranks sharing the
	// caller's address space compute their blocks in place in it and return
	// none. Worker processes return their block instead (ReturnC).
	Out *mat.Matrix `json:"-"`
	// Hier routes the job through the hierarchical two-level path
	// (internal/hier): groups of ranks stage their outer panels once per
	// group, bit-identical to the flat path. HierGroup overrides the group
	// size (0 = one group per emulated shared-memory domain, i.e. per
	// worker node — how internal/cluster maps groups onto nodes).
	Hier      bool
	HierGroup int
	// ReturnC ships each rank's C block back in its RankResult.
	ReturnC bool
	// Trace attaches a per-worker obs.Recorder; events come back in the
	// RankResult together with the worker's wall epoch so the coordinator
	// can merge the lanes onto its own timeline.
	Trace bool
	// Chaos, when non-nil, wraps the worker's Ctx in the deterministic
	// fault injector (faults.NewPlan(Chaos, NProcs)); Recover additionally
	// wraps the resilient retry/checksum layer around it.
	Chaos   *faults.Config
	Recover bool

	// MPCheck replaces the GEMM body with a two-sided collective exercise
	// (Bcast + Allreduce over internal/mp); the "C block" is the reduced
	// vector, identical on every rank and computable in closed form.
	MPCheck bool

	// Test hooks (used by the engine's own failure-path tests): the named
	// rank exits the process / hangs forever at job start. -1 disables.
	ExitRank int
	ExitCode int
	HangRank int
}

// DefaultSpec returns a spec with the hooks disabled and sane scalars.
func DefaultSpec(m, n, k int) *JobSpec {
	return &JobSpec{M: m, N: n, K: k, Alpha: 1, Seed: 1, ExitRank: -1, HangRank: -1}
}

// RankResult is one worker's FIN payload.
type RankResult struct {
	Rank int
	// Err is the job body's failure ("" on success): a recovered panic or
	// a core.Multiply error, with the rank's context.
	Err   string
	Stats *rt.Stats
	// C block (row-major CRows x CCols), present when the spec asked for it.
	C            []float64
	CRows, CCols int
	// Trace events on lane == rank, with the worker's recorder epoch in
	// unix nanos so the coordinator can shift them onto its own epoch.
	Events        []obs.Event
	EpochUnixNano int64
	// DirectMaps counts distinct PEER segments this rank mapped for direct
	// load/store access — the observable proof that intra-node operands
	// took the mmap path rather than the socket. Reset per job, so a
	// steady-state job on a warm segment pool reports 0.
	DirectMaps int64
	// MmapMallocs counts lifetime segment-file create+mmap calls in the
	// worker process; flat across same-shape jobs when the coordinator's
	// segment pool is reusing parked segments.
	MmapMallocs int64
	// TCPPeers counts lifetime peer connections this rank dialed over TCP
	// (the cross-domain scheme of the tcp transport).
	TCPPeers int64
	// Salvage of a failed body: when Salvaged is true, C/CRows/CCols hold
	// the partial block and LedgerBits/LedgerTasks this rank's completion
	// bitset — enough for a retry attempt to resume instead of restart.
	Salvaged    bool
	LedgerBits  []uint64 `json:",omitempty"`
	LedgerTasks int
}

// RankPrior is what one rank salvaged from a failed attempt of the same
// job: its partial C block, its ledger's completion bitset and the task
// count the bitset covers. The three travel together — a block without the
// marks that say what it contains (or the reverse) cannot be resumed over.
type RankPrior struct {
	C     []float64
	Bits  []uint64
	Tasks int
}

// RunBody executes one spec against any data-carrying engine Ctx. It is
// the body both sides of the bit-identity gate run: workers call it with
// their ipc ctx, and comparison harnesses call it on armci with the same
// topology. Results: this rank's C block and its shape.
func RunBody(c rt.Ctx, spec *JobSpec) ([]float64, int, int, error) {
	return RunBodyEx(c, spec, nil)
}

// SpecError reports a job that cannot run as stated — an inline operand
// whose length disagrees with the shape, salvage that does not fit its
// rank's block — found before any rank enters a collective: not a rank
// failure, and not worth a retry.
type SpecError struct{ Msg string }

func (e *SpecError) Error() string { return "ipcrt: bad job spec: " + e.Msg }

// Validate checks what a rank body would otherwise trip over mid-run on
// nprocs ranks. The in-process runner, the coordinator and every worker
// call it before the job starts.
func (s *JobSpec) Validate(nprocs int) error {
	if s.MPCheck {
		return nil
	}
	bad := func(format string, args ...any) error { return &SpecError{fmt.Sprintf(format, args...)} }
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

// RunBodyEx is RunBody with a salvage sink: when the body panics mid-run
// (an injected crash, a real bug) and the spec attached a ledger, the
// partial C block and the completion bitset are captured into salv (marked
// Salvaged) before the panic continues — the raw material of a resume, in
// this process or another. It is the one rank body of the serving stack:
// worker processes and the server's in-process teams both run it.
//
// Operand placement is internal/driver's choice (adopted in process, copied
// into segments in a worker). The body leaves the three Globals allocated.
// A worker process frees them after the job so the coordinator can park the
// segments for the next one; on the in-process engine every Free is a full
// barrier that buys nothing (the memory is garbage collected), so team runs
// skip it.
func RunBodyEx(c rt.Ctx, spec *JobSpec, salv *RankResult) ([]float64, int, int, error) {
	if spec.MPCheck {
		return runMPCheck(c, spec)
	}
	// Stated here, unconditionally, rather than through core.Options (which
	// only forwards positive counts): persistent ranks keep the previous
	// job's setting, which is only correct if every job states its own.
	if kt := rt.FindKernelTuner(c); kt != nil {
		kt.SetKernelThreads(spec.KernelThreads)
	}
	d := core.Dims{M: spec.M, N: spec.N, K: spec.K}
	if err := d.Validate(); err != nil {
		return nil, 0, 0, err
	}
	g, err := grid.Square(c.Size())
	if err != nil {
		return nil, 0, 0, err
	}
	cs := core.Case(spec.Case)
	da, db, dc := core.Dists(g, d, cs)
	me := c.Rank()
	rows, cols := dc.LocalShape(me)

	var a, b *mat.Matrix
	if spec.Data {
		a, b = mat.FromData(da.Rows, da.Cols, spec.A), mat.FromData(db.Rows, db.Cols, spec.B)
	} else {
		a, b = mat.Random(da.Rows, da.Cols, spec.Seed), mat.Random(db.Rows, db.Cols, spec.Seed+1)
	}
	ga := driver.Bind(c, da, a)
	gb := driver.Bind(c, db, b)
	// The result is computed in place in spec.Out when the run has one,
	// otherwise in a segment that is read back as this rank's block.
	var gc rt.Global
	if spec.Out != nil {
		gc = driver.Bind(c, dc, spec.Out)
	} else {
		gc = driver.AllocBlock(c, dc)
	}

	// Resume state: this rank rejoins mid-job only with all three pieces
	// of salvage (partial C, ledger bits, task count); otherwise it
	// restarts from the loaded operands with an empty ledger.
	var jl *core.JobLedger
	if spec.UseLedger {
		jl = core.NewJobLedger(c.Size())
	}
	prior := spec.Prior[me]
	resumed := jl != nil && len(prior.C) == rows*cols && len(prior.Bits) > 0 && prior.Tasks > 0
	switch {
	case resumed:
		jl.RestoreRank(me, prior.Tasks, prior.Bits)
		driver.WriteBlock(c, gc, mat.FromData(rows, cols, prior.C))
	case spec.Beta != 0 && spec.Data:
		driver.LoadBlock(c, dc, gc, mat.FromData(d.M, d.N, spec.CIn))
	case spec.Beta != 0:
		driver.LoadBlock(c, dc, gc, mat.Random(d.M, d.N, spec.Seed+2))
	}

	opts := core.Options{
		Case:            cs,
		SingleBuffer:    spec.SingleBuffer,
		NoDiagonalShift: spec.NoDiagonalShift,
		MaxTaskK:        spec.MaxTaskK,
		Ledger:          jl,
		ABFT:            spec.ABFT,
		ABFTTol:         spec.ABFTTol,
		Cancel:          spec.Cancel,
	}
	if salv != nil && jl != nil {
		// Only the panic path salvages. A rank RETURNING an error (e.g. an
		// exhausted ABFT recompute) holds a corrupted accumulation for an
		// unmarked task, and resuming over it would double-add.
		defer func() {
			if p := recover(); p != nil {
				// Best-effort: the engine may be half-wedged, so a salvage
				// failure must not mask the original panic.
				func() {
					defer func() { _ = recover() }()
					cBlock := driver.StoreBlock(c, dc, gc).Data
					if bits, n := jl.RankBits(me); len(bits) > 0 && n > 0 {
						salv.C, salv.CRows, salv.CCols = cBlock, rows, cols
						salv.LedgerBits, salv.LedgerTasks = bits, n
						salv.Salvaged = true
					}
				}()
				panic(p)
			}
		}()
	}
	if spec.Hier {
		topo := c.Topo()
		topo.GroupSize = spec.HierGroup
		err = hier.MultiplyEx(c, hier.From(topo, g), d, hier.Options{Options: opts},
			spec.Alpha, spec.Beta, ga, gb, gc)
	} else {
		err = core.MultiplyEx(c, g, d, opts, spec.Alpha, spec.Beta, ga, gb, gc)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("rank %d: %w", me, err)
	}
	if spec.Out != nil {
		return nil, rows, cols, nil
	}
	return driver.StoreBlock(c, dc, gc).Data, rows, cols, nil
}

// runMPCheck exercises the two-sided layer end to end: rank 0 broadcasts a
// seed vector, every rank adds its own rank to each element, and an
// Allreduce sums the results. The expected outcome on every rank is
// Size*base[i] + sum(0..Size-1) — see ExpectedMPCheck.
func runMPCheck(c rt.Ctx, spec *JobSpec) ([]float64, int, int, error) {
	n := spec.N
	if n <= 0 {
		n = 8
	}
	all := make([]int, c.Size())
	for i := range all {
		all[i] = i
	}
	b := c.LocalBuf(n)
	if c.Rank() == 0 {
		c.WriteBuf(b, 0, mpCheckBase(n, spec.Seed))
	}
	mp.Bcast(c, 0, all, b, 0, n, 7)
	vals := c.ReadBuf(b, 0, n)
	for i := range vals {
		vals[i] += float64(c.Rank())
	}
	c.WriteBuf(b, 0, vals)
	mp.Allreduce(c, all, b, 0, n, 9)
	return c.ReadBuf(b, 0, n), 1, n, nil
}

// mpCheckBase is deliberately small-integer-valued so Bcast+Allreduce
// results are exact regardless of reduction association order.
func mpCheckBase(n int, seed uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((seed + uint64(i)*7) % 1000)
	}
	return out
}

// ExpectedMPCheck computes what every rank's MPCheck result must be.
func ExpectedMPCheck(n, nprocs int, seed uint64) []float64 {
	base := mpCheckBase(n, seed)
	rankSum := float64(nprocs*(nprocs-1)) / 2
	out := make([]float64, n)
	for i, v := range base {
		out[i] = float64(nprocs)*v + rankSum
	}
	return out
}

// WrapChaos applies the spec's fault-injection layers around an engine
// Ctx, identically on workers and on in-process comparison runs.
func WrapChaos(c rt.Ctx, spec *JobSpec, nprocs int) (rt.Ctx, error) {
	if spec.Chaos == nil {
		return c, nil
	}
	plan, err := faults.NewPlan(*spec.Chaos, nprocs)
	if err != nil {
		return nil, err
	}
	wrapped := faults.Inject(c, plan, nil)
	if spec.Recover {
		wrapped = faults.Resilient(wrapped, faults.RecoveryConfig{})
	}
	return wrapped, nil
}
