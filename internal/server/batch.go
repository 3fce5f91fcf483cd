package server

// Scheduler integration: the glue between internal/sched (which decides
// WHAT runs next, and on whose goroutine) and what runs it. A sched.Worker
// is a persistent armci.Team; a sched.Task carries one admitted multiply as
// a schedJob payload. Distributed jobs run on the worker's team. Small
// products need no team — each is one call into the local packed kernel —
// so whoever holds a dispatch of them computes them: the handler goroutine
// whose Submit the scheduler turned into a dispatch of one (idle pool, see
// sched's package comment), or the pool worker that popped a coalesced
// backlog, with helpers up to the processor count pulling from the same
// counter. Results are bit identical however a product was reached because
// mat.GemmParallel's stripe split is thread-count-invariant. A batch runs
// in arrival order; every gemmLocal packs its own operands' panels.

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
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
	batch    int // dispatch size that served this job
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
		BatchMax:   s.cfg.BatchMax,
		// One registry backs the whole service: the scheduler's "sched.*"
		// instruments live next to the serving layer's "server.*" ones, and
		// its queue-wait/batch spans land on the recorder's sched lane.
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

// schedExec runs one dispatch: a singleton distributed job on the worker's
// team, or small GEMMs (one that the scheduler had its submitter run, w nil,
// or a backlog coalesced in arrival order) on the goroutine that holds
// them. Only distributed jobs carry recovery state. Every task is finished here, with
// its error if it failed; retrying is runScheduled's.
func (s *Server) schedExec(w sched.Worker, tasks []*sched.Task) sched.Outcome {
	if tasks[0].Payload.(*schedJob).rec != nil {
		return s.execDistributedTask(w.(*teamWorker).tm, tasks[0])
	}
	return s.execGemmBatch(tasks)
}

// execDistributedTask runs one large multiply and finishes its task with
// the run's error. On the cluster route the team hosting the dispatch only
// bounds how many cluster jobs are in flight — one per team, so with the
// default two teams two jobs can hold both nodes at once (the pool's router
// takes any free node). The pool's worker processes do the arithmetic, and
// a node failure is repaired inside the pool.
func (s *Server) execDistributedTask(tm *armci.Team, t *sched.Task) sched.Outcome {
	job := t.Payload.(*schedJob)
	if hook := s.batchHook(); hook != nil {
		hook(t)
	}
	if t.Cancelled() {
		t.Finish(sched.ErrCancelled)
		return sched.Outcome{}
	}
	job.started = time.Now()
	job.batch = 1
	out, err := s.runDistributed(tm, job)
	job.out = out
	job.finished = time.Now()
	t.Finish(err)
	return sched.Outcome{}
}

// errSmallPanic finishes a small product whose executor panicked; the
// handler retries it (retryableRunError) as a restarted job.
var errSmallPanic = errors.New("server: small-route executor panicked")

// gemmBatch is one dispatch of small GEMMs while it is being computed.
type gemmBatch struct {
	s       *Server
	tasks   []*sched.Task
	next    atomic.Int64 // the shared counter every executor pulls from
	threads int
	hook    func(*sched.Task)
	helpers sync.WaitGroup
}

// execGemmBatch computes a dispatch of small GEMMs on the goroutine that was
// handed it, joined for more than one task by helpers — executors never
// outnumber processors or tasks — that pull from the same counter.
func (s *Server) execGemmBatch(tasks []*sched.Task) sched.Outcome {
	b := &gemmBatch{s: s, tasks: tasks, threads: s.batchKernelThreads(), hook: s.batchHook()}
	for i := min(len(tasks), goruntime.GOMAXPROCS(0)) - 1; i > 0; i-- {
		b.helpers.Add(1)
		go func() {
			defer b.helpers.Done()
			b.drain()
		}()
	}
	b.drain()
	b.helpers.Wait()
	return sched.Outcome{}
}

// drain is one executor: it computes tasks off the shared counter until
// none are left.
func (b *gemmBatch) drain() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.tasks) {
			return
		}
		b.run(b.tasks[i])
	}
}

// run computes one small product and finishes its task. A panic — the
// kernel's, or the test hook's — finishes the task with errSmallPanic, and
// the executor goes on to the next.
func (b *gemmBatch) run(t *sched.Task) {
	defer func() {
		if r := recover(); r != nil {
			t.Finish(fmt.Errorf("%w: %v", errSmallPanic, r))
		}
	}()
	if b.hook != nil {
		b.hook(t)
	}
	if t.Cancelled() {
		t.Finish(sched.ErrCancelled)
		return
	}
	job := t.Payload.(*schedJob)
	job.started = time.Now()
	job.batch = len(b.tasks)
	out, buf, err := b.s.gemmLocal(job.req, job.cs, job.d, b.threads)
	job.out, job.outBuf = out, buf
	job.finished = time.Now()
	t.Finish(err)
}

// batchKernelThreads is the local-kernel width of one small GEMM: the
// configured per-rank width, which divides the machine by the rank count —
// concurrent requests, not threads inside one, are what fill the processors.
func (s *Server) batchKernelThreads() int {
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
// guarantee), which is what makes batched and unbatched execution
// indistinguishable to the caller.
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

// batchHook returns the test-only per-task hook, if any (set via
// setBatchHook from tests to block or crash dispatches deterministically).
func (s *Server) batchHook() func(*sched.Task) {
	if v := s.testBatchHook.Load(); v != nil {
		return v.(func(*sched.Task))
	}
	return nil
}

func (s *Server) setBatchHook(h func(*sched.Task)) {
	s.testBatchHook.Store(h)
}
