package server

// Scheduler integration: the glue between internal/sched (which decides
// WHAT runs next, and on whose goroutine) and what runs it. A sched.Worker
// is a persistent armci.Team; a sched.Task carries one admitted multiply as
// a schedJob payload, and every dispatch is one task. Distributed jobs run
// on the worker's team. A small product needs no team — it is one call
// into the local packed kernel — so whoever holds its dispatch computes
// it: the handler goroutine whose Submit the scheduler turned into the
// dispatch (idle pool, see sched's package comment), or the pool worker
// that popped it from a backlog. Results are bit identical on either
// goroutine, and at any kernel width, because mat.GemmParallel's stripe
// split is thread-count-invariant.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/mat"
	"srumma/internal/sched"
)

// schedJob is the payload of one scheduled multiply. The handler fills the
// request half, the executor fills the result half; the handler reads the
// result only after Task.Done() closes, which orders the accesses.
type schedJob struct {
	req *MultiplyRequest
	cs  core.Case
	d   core.Dims
	ctx context.Context // request context; Done() doubles as Task.Cancel
	// rec carries a distributed request's recovery state (what a failed
	// attempt's ranks salvaged) across retry attempts; nil on the small route.
	rec *jobRecovery

	out *mat.Matrix
	// outBuf is the pooled storage behind out (nil when the result cache is
	// on, or on the cluster route): the handler gives it back once the
	// response is written.
	outBuf   *mat.Buf
	started  time.Time
	finished time.Time
}

// teamWorker adapts a persistent engine team to sched.Worker.
type teamWorker struct {
	tm *armci.Team
}

func (w *teamWorker) Close() error { return w.tm.Close() }

// newScheduler builds the workload scheduler over a fixed pool of Teams
// persistent teams.
func (s *Server) newScheduler() (*sched.Scheduler, error) {
	return sched.New(sched.Config{
		MinWorkers: s.cfg.Teams,
		QueueCap:   s.cfg.QueueCap,
		// One registry backs the whole service: the scheduler's "sched.*"
		// instruments live next to the serving layer's "server.*" ones, and
		// its queue-wait and dispatch spans land on the recorder's sched lane.
		Metrics:   s.met.reg,
		Trace:     s.rec,
		TraceLane: s.cfg.NProcs + 1,
		NewWorker: func() (sched.Worker, error) {
			tm, err := armci.NewTeam(s.topo)
			if err != nil {
				return nil, err
			}
			// Every team records onto the service's one recorder (nil with
			// tracing off), so /debug/trace is one timeline.
			tm.SetRecorder(s.rec)
			return &teamWorker{tm: tm}, nil
		},
		Exec: s.schedExec,
	})
}

// schedExec runs one dispatch, whose one task is a distributed job on the
// worker's team or a small GEMM on the goroutine that holds the dispatch
// (its submitter, w nil, or the pool worker that popped it). Only
// distributed jobs carry recovery state. The task is finished here, with
// its error if it failed; retrying is runScheduled's.
func (s *Server) schedExec(w sched.Worker, tasks []*sched.Task) sched.Outcome {
	if t := tasks[0]; t.Payload.(*schedJob).rec != nil {
		s.execDistributedTask(w.(*teamWorker).tm, t)
	} else {
		s.execSmallTask(t)
	}
	return sched.Outcome{}
}

// execDistributedTask runs one large multiply and finishes its task with
// the run's error. On the cluster route the team hosting the dispatch only
// bounds how many cluster jobs are in flight — one per team, so with the
// default two teams two jobs can hold both nodes at once (the pool's router
// takes any free node). The pool's worker processes do the arithmetic, and
// a node failure is repaired inside the pool.
func (s *Server) execDistributedTask(tm *armci.Team, t *sched.Task) {
	job := t.Payload.(*schedJob)
	if hook := s.dispatchHook(); hook != nil {
		hook(t)
	}
	if t.Cancelled() {
		t.Finish(sched.ErrCancelled)
		return
	}
	job.started = time.Now()
	out, err := s.runDistributed(tm, job)
	job.out = out
	job.finished = time.Now()
	t.Finish(err)
}

// errSmallPanic finishes a small product whose executor panicked; the
// handler retries it (retryableRunError) as a restarted job.
var errSmallPanic = errors.New("server: small-route executor panicked")

// execSmallTask computes one small product and finishes its task. A panic —
// the kernel's, or the test hook's — finishes the task with errSmallPanic.
func (s *Server) execSmallTask(t *sched.Task) {
	defer func() {
		if r := recover(); r != nil {
			t.Finish(fmt.Errorf("%w: %v", errSmallPanic, r))
		}
	}()
	if hook := s.dispatchHook(); hook != nil {
		hook(t)
	}
	if t.Cancelled() {
		t.Finish(sched.ErrCancelled)
		return
	}
	job := t.Payload.(*schedJob)
	job.started = time.Now()
	out, buf, err := s.gemmLocal(job.req, job.cs, job.d, s.smallKernelThreads())
	job.out, job.outBuf = out, buf
	job.finished = time.Now()
	t.Finish(err)
}

// smallKernelThreads is the local-kernel width of one small GEMM: the
// configured per-rank width, which divides the machine by the rank count —
// concurrent requests, not threads inside one, are what fill the processors.
func (s *Server) smallKernelThreads() int {
	if s.cfg.KernelThreads > 0 {
		return s.cfg.KernelThreads
	}
	return armci.DefaultKernelThreads(s.cfg.NProcs)
}

// resultMatrix returns the m x n matrix a product is computed into: storage
// from the buffer pool, returned beside it for the handler to give back —
// unless the result cache is on: a cached result outlives its request, so
// it gets an allocation of its own that the cache can keep. A pooled buffer
// arrives dirty; with beta == 0 the kernel never reads it, and any other
// beta overwrites it with the request's C first.
func (s *Server) resultMatrix(m, n int) (*mat.Matrix, *mat.Buf) {
	if s.cache != nil {
		return mat.New(m, n), nil
	}
	buf := mat.GetBuf(m * n)
	return &mat.Matrix{Rows: m, Cols: n, Stride: n, Data: buf.Data}, buf
}

// gemmLocal runs one product on the local packed parallel kernel. The
// result is bit-identical for every threads value (GemmParallel's
// guarantee), which is what makes the small route's result independent of
// the kernel width a request asks for.
func (s *Server) gemmLocal(req *MultiplyRequest, cs core.Case, d core.Dims, threads int) (*mat.Matrix, *mat.Buf, error) {
	a := &mat.Matrix{Rows: req.ARows, Cols: req.ACols, Stride: req.ACols, Data: req.A}
	b := &mat.Matrix{Rows: req.BRows, Cols: req.BCols, Stride: req.BCols, Data: req.B}
	c, buf := s.resultMatrix(d.M, d.N)
	if req.beta() != 0 {
		copy(c.Data, req.C)
	}
	if req.KernelThreads > 0 {
		threads = req.KernelThreads
	}
	if threads <= 0 {
		threads = 1
	}
	if err := mat.GemmParallel(threads, cs.TransA(), cs.TransB(), req.alpha(), a, b, req.beta(), c); err != nil {
		mat.PutBuf(buf)
		return nil, nil, err
	}
	return c, buf, nil
}

// dispatchHook returns the test-only per-task hook, if any (set via
// setDispatchHook from tests to block or crash dispatches deterministically).
func (s *Server) dispatchHook() func(*sched.Task) {
	if v := s.testDispatchHook.Load(); v != nil {
		return v.(func(*sched.Task))
	}
	return nil
}

func (s *Server) setDispatchHook(h func(*sched.Task)) {
	s.testDispatchHook.Store(h)
}
