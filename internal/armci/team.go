package armci

// Persistent engine teams. The one-shot Run spawns nprocs goroutines, runs
// one SPMD body and tears everything down — the right lifecycle for a test,
// the wrong one for a server multiplying matrices all day. A Team keeps the
// rank goroutines parked between jobs: successive Run calls dispatch new
// SPMD bodies onto the SAME goroutines, so per-rank kernel-thread
// configuration (SetKernelThreads) stays warm across jobs and the process
// keeps its size-class scratch pools hot without re-paying goroutine and
// scheduler setup per multiply.
//
// Lifecycle and failure model:
//
//   - Collective state (barrier, mailbox, Malloc slot table, start clock,
//     per-rank Stats) is created FRESH per job. A job that panics or is
//     aborted poisons only its own collectives; the team itself stays
//     usable for the next job, which is what a serving layer needs after a
//     cancelled or failed request.
//   - Run calls are serialized by the team's mutex; callers wanting
//     concurrency pool several teams.
//   - RunWithTimeout arms the same deadlock watchdog as the one-shot form.
//     If the watchdog fires and some ranks never unwind, those goroutines
//     are wedged in user code (or injected faults) — the team records them
//     and refuses further jobs, because the parked loop underneath them is
//     gone for good.
//   - Close drains: it closes the job channels (parked ranks exit
//     immediately) and waits a grace period for every rank goroutine to
//     return, reporting whoever is still out there as a *WatchdogError —
//     the same leaked-rank detection the one-shot watchdog performs.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/obs"
	"srumma/internal/rt"
)

// teamCloseGrace is how long Close waits for rank goroutines to unwind
// before declaring them leaked.
const teamCloseGrace = 250 * time.Millisecond

// teamJob is one SPMD body dispatched to every rank with its own fresh
// collective state and failure accounting.
type teamJob struct {
	body     func(rt.Ctx)
	r        *runtime
	errs     []error
	finished []int32
	wg       sync.WaitGroup
}

// Team is a persistent set of SPMD rank goroutines executing successive
// bodies. Create with NewTeam, run jobs with Run/RunWithTimeout, release
// with Close.
type Team struct {
	topo rt.Topology

	mu     sync.Mutex
	closed bool
	leaked []int // ranks wedged by an earlier watchdogged job

	jobs   []chan *teamJob
	exited []chan struct{}
	ctxs   []*ctx
}

// NewTeam validates topo and parks one goroutine per rank.
func NewTeam(topo rt.Topology) (*Team, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	n := topo.NProcs
	t := &Team{
		topo:   topo,
		jobs:   make([]chan *teamJob, n),
		exited: make([]chan struct{}, n),
		ctxs:   make([]*ctx, n),
	}
	for rank := 0; rank < n; rank++ {
		// Buffered so dispatch never blocks on a wedged rank: the watchdog
		// path can then observe the rank as leaked instead of hanging Run.
		t.jobs[rank] = make(chan *teamJob, 1)
		t.exited[rank] = make(chan struct{})
		t.ctxs[rank] = &ctx{}
		t.ctxs[rank].Init(rank, n)
		go t.rankLoop(rank)
	}
	return t, nil
}

func (t *Team) rankLoop(rank int) {
	defer close(t.exited[rank])
	for job := range t.jobs[rank] {
		runRank(job, t.ctxs[rank])
	}
}

// RankPanicError is the per-rank run error recorded when a rank's job body
// panicked. It keeps the panic payload inspectable: a recovery layer can
// errors.As through it to the underlying cause (e.g. an injected
// faults.CrashError) and decide whether the job is worth resuming.
type RankPanicError struct {
	Rank  int
	Cause any
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("armci: rank %d panicked: %v", e.Rank, e.Cause)
}

// Unwrap exposes the panic payload when it was itself an error, and marks
// the failure as the engine-independent "rank exited" class (the rank
// unwound and is gone — the same class as a dead worker process on the
// multi-process engine), as opposed to rt.ErrRankDeadlocked (wedged but
// still there, the WatchdogError class). errors.Is/As walk both branches.
func (e *RankPanicError) Unwrap() []error {
	if err, ok := e.Cause.(error); ok {
		return []error{err, rt.ErrRankExited}
	}
	return []error{rt.ErrRankExited}
}

// runRank executes one job on one rank with the engine's standard recovery:
// a panic is recorded with rank context and the job's collectives are
// aborted so the surviving ranks unwind instead of hanging.
func runRank(job *teamJob, c *ctx) {
	defer job.wg.Done()
	defer atomic.StoreInt32(&job.finished[c.rank], 1)
	defer func() {
		if p := recover(); p != nil {
			if _, secondary := p.(abortError); secondary {
				job.errs[c.rank] = abortError{}
			} else {
				job.errs[c.rank] = &RankPanicError{Rank: c.rank, Cause: p}
			}
			job.r.barrier.abort()
			job.r.mbox.abort()
		}
	}()
	// One job span per rank, wake to unwind (closure defer so the end time
	// is read at unwind, not at defer registration). Against the recorder's
	// shared epoch, successive jobs on a persistent team line up on one
	// serving timeline.
	jt0 := c.SpanStart()
	defer func() { c.Span(obs.KindJob, jt0) }()
	job.body(c)
}

// Topo returns the team's topology.
func (t *Team) Topo() rt.Topology { return t.topo }

// SetRecorder attaches (or, with nil, detaches) an obs.Recorder to every
// rank: subsequent jobs emit wall-clock spans onto lane == rank. Must be
// called between jobs (Run serializes on the same mutex).
func (t *Team) SetRecorder(r *obs.Recorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.ctxs {
		c.SetRecorder(r)
	}
}

// Run executes body once per rank and returns per-rank stats, like the
// package-level Run but on the parked goroutines.
func (t *Team) Run(body func(rt.Ctx)) ([]*rt.Stats, error) {
	return t.RunWithTimeout(0, body)
}

// RunWithTimeout is Run with the deadlock watchdog armed (0 = none). A
// fired watchdog aborts the job's collectives; ranks that still do not
// unwind are recorded as leaked and the team refuses further jobs.
func (t *Team) RunWithTimeout(timeout time.Duration, body func(rt.Ctx)) ([]*rt.Stats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("armci: Run on closed team")
	}
	if len(t.leaked) > 0 {
		return nil, fmt.Errorf("armci: team unusable: ranks %v leaked by an earlier run", t.leaked)
	}
	n := t.topo.NProcs
	job := &teamJob{
		body: body,
		r: &runtime{
			topo:    t.topo,
			barrier: newBarrier(n),
			mbox:    newMailbox(),
			slots:   make(map[int]*global),
			start:   time.Now(),
		},
		errs:     make([]error, n),
		finished: make([]int32, n),
	}
	job.wg.Add(n)
	stats := make([]*rt.Stats, n)
	for rank, c := range t.ctxs {
		// Fresh per-job runtime and accounting; kernelThreads deliberately
		// persists (the warm configuration a serving layer relies on). The
		// job-channel send below publishes these writes to the rank
		// goroutine; wg.Wait publishes the rank's writes back to us.
		c.rt = job.r
		c.collSeq = 0
		stats[rank] = c.ResetStats()
	}
	for rank := range t.jobs {
		t.jobs[rank] <- job
	}

	done := make(chan struct{})
	go func() {
		job.wg.Wait()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
			// Abort the collectives so runtime-blocked ranks unwind, give
			// them a moment, then record whoever is still out there.
			job.r.barrier.abort()
			job.r.mbox.abort()
			select {
			case <-done:
			case <-time.After(100 * time.Millisecond):
			}
			var stuck []int
			for rank := range job.finished {
				if atomic.LoadInt32(&job.finished[rank]) == 0 {
					stuck = append(stuck, rank)
				}
			}
			t.leaked = stuck
			return stats, &WatchdogError{Timeout: timeout, Leaked: stuck}
		}
	} else {
		<-done
	}

	// Prefer the original failure over secondary abort unwinds.
	var firstAbort error
	for _, err := range job.errs {
		if err == nil {
			continue
		}
		if _, secondary := err.(abortError); secondary {
			if firstAbort == nil {
				firstAbort = err
			}
			continue
		}
		return stats, err
	}
	return stats, firstAbort
}

// Close shuts the team down: parked ranks exit immediately, and ranks still
// inside a job get a grace period before being reported as leaked via
// *WatchdogError (they stay leaked until process exit, exactly like the
// one-shot watchdog's leak report). Close is idempotent.
func (t *Team) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closeLocked(teamCloseGrace)
}

// abandon closes the job channels without waiting for ranks to unwind —
// used by the one-shot wrapper after a watchdog already reported the leak.
func (t *Team) abandon() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		for _, ch := range t.jobs {
			close(ch)
		}
	}
}

func (t *Team) closeLocked(grace time.Duration) error {
	if t.closed {
		return nil
	}
	t.closed = true
	for _, ch := range t.jobs {
		close(ch)
	}
	deadline := time.Now().Add(grace)
	var stuck []int
	for rank, ex := range t.exited {
		select {
		case <-ex:
			continue // already unwound; don't race against the timer below
		default:
		}
		select {
		case <-ex:
		case <-time.After(time.Until(deadline)):
			stuck = append(stuck, rank)
		}
	}
	if len(stuck) > 0 {
		return &WatchdogError{Timeout: grace, Leaked: stuck}
	}
	return nil
}

// Team satisfies the rt.Runner capability, as does the one-shot engine via
// OneShot.
var _ rt.Runner = (*Team)(nil)

// OneShot adapts the package-level one-shot Run to the rt.Runner
// capability: each Run call builds a fresh team, runs the body once, and
// tears it down.
type OneShot struct{ Topo rt.Topology }

// Run executes body with one-shot lifecycle.
func (o OneShot) Run(body func(rt.Ctx)) ([]*rt.Stats, error) {
	return Run(o.Topo, body)
}

var _ rt.Runner = OneShot{}

// RunTraced is the one-shot Run with an obs.Recorder attached: every rank
// emits wall-clock spans (gemm, wait, get/put, pack, barrier, job) onto its
// lane. The recorder should have at least topo.NProcs lanes; unbounded
// lanes (perLaneCap <= 0) are the right shape for a single traced run.
func RunTraced(topo rt.Topology, rec *obs.Recorder, body func(rt.Ctx)) ([]*rt.Stats, error) {
	t, err := NewTeam(topo)
	if err != nil {
		return nil, err
	}
	t.SetRecorder(rec)
	stats, err := t.Run(body)
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	return stats, err
}
