package ipcrt

import (
	"fmt"
	"sync"

	"srumma/internal/faults"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// JobSpec is one SPMD job, serialized to every worker. Closures cannot
// cross a process boundary, so the multi-process engine dispatches jobs by
// value: the spec names a registered job body (Body) and carries its
// parameters, and every rank runs that body on its own ctx. The parameters
// are the GEMM body's (internal/job, registered under ""); a test body reads
// what it needs of them.
type JobSpec struct {
	// Body names the registered job body every rank runs; "" is the GEMM body.
	Body string `json:",omitempty"`
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
	ABFT bool
	// Executor knobs, forwarded to core.Options.
	SingleBuffer    bool
	NoDiagonalShift bool
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
	// group, bit-identical to the flat path. A group is an emulated
	// shared-memory domain, i.e. a worker node — how internal/cluster maps
	// groups onto nodes.
	Hier bool
	// ReturnC ships each rank's C block back in its RankResult.
	ReturnC bool
	// Trace attaches a per-worker obs.Recorder; events come back in the
	// RankResult together with the worker's wall epoch so the coordinator
	// can merge the lanes onto its own timeline.
	Trace bool
	// Chaos, when non-nil, wraps the rank's Ctx in the deterministic fault
	// injector (faults.NewPlan(Chaos, NProcs)).
	Chaos *faults.Config

	// Failure hooks, read by the worker before it looks at the body: the
	// named rank exits the process with ExitCode / hangs forever at job
	// start. -1 disables.
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

// SpecError reports a job that cannot run as stated — an unregistered body,
// an inline operand whose length disagrees with the shape, salvage that does
// not fit its rank's block — found before any rank enters a collective: not
// a rank failure, and not worth a retry.
type SpecError struct{ Msg string }

func (e *SpecError) Error() string { return "ipcrt: bad job spec: " + e.Msg }

// Body is one kind of job the engine can run. Validate refuses, before any
// rank starts, a spec that Run would trip over mid-run on nprocs ranks (nil
// accepts every spec). Run executes the spec on one rank and returns this
// rank's block of the result — nil when it was computed in place in
// spec.Out — depositing, when it panics, what it salvaged into res.
type Body struct {
	Validate func(spec *JobSpec, nprocs int) error
	Run      func(c rt.Ctx, spec *JobSpec, res *RankResult) (*mat.Matrix, error)
}

// bodies holds the registered job bodies by name. A worker process is a
// re-execution of its coordinator's binary, so a body registered at init —
// from a _test.go file too — exists on both sides of the process boundary.
var bodies sync.Map

// Register makes b runnable as the job body name. The GEMM body registers
// itself under "" from internal/job; a program that runs jobs imports it.
func Register(name string, b Body) { bodies.Store(name, b) }

// body returns the spec's registered body and its Validate's verdict on the
// spec for nprocs ranks.
func (s *JobSpec) body(nprocs int) (b Body, err error) {
	v, ok := bodies.Load(s.Body)
	if !ok {
		return b, &SpecError{fmt.Sprintf("no job body %q in this process", s.Body)}
	}
	if b = v.(Body); b.Validate != nil {
		err = b.Validate(s, nprocs)
	}
	return b, err
}

// Validate checks the spec through its registered body for nprocs ranks: the
// in-process runner, the coordinator and every worker call it first.
func (s *JobSpec) Validate(nprocs int) error {
	_, err := s.body(nprocs)
	return err
}
