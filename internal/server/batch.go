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
// mat.GemmParallel's stripe split is thread-count-invariant.
//
// With the content-addressed cache on, batched jobs that share an operand
// (the LocKey sort puts equal shapes — and therefore repeated operands —
// adjacent) reference ONE interned canonical buffer: the block table
// dedups at decode, so the shared matrix is resident once and each
// gemmLocal in the batch reads the same backing array instead of its own
// copy ("pack/ship it once"; server.cache.block_dedup counts the
// duplicates avoided).

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
	"srumma/internal/hier"
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
	rec    *jobRecovery
	traced bool // head-sampling verdict for this request's spans

	out *mat.Matrix
	// outBuf is the pooled storage behind a small-route out (nil when the
	// result cache is on, or on the distributed routes): the handler gives it
	// back once the response is written.
	outBuf   *alignedBuf
	batch    int // dispatch size that served this job
	started  time.Time
	finished time.Time
}

// teamWorker adapts a persistent engine team to sched.Worker.
type teamWorker struct {
	tm *armci.Team
}

func (w *teamWorker) Close() error { return w.tm.Close() }

// locKey packs the problem shape and transpose case into the scheduler's
// locality key: batches sort by it, so equal shapes run consecutively
// against warm scratch. Dims are bounded by MaxDim (<= 4096), well inside
// the 20-bit fields.
func locKey(cs core.Case, d core.Dims) uint64 {
	return uint64(d.M)<<42 | uint64(d.N)<<22 | uint64(d.K)<<2 | uint64(cs)&3
}

// newScheduler builds the workload scheduler over a pool of persistent
// teams. In hierarchical mode each team's ranks are carved into SUMMA
// groups, so the elastic pool doubles as the group manager: its
// GroupsPerWorker tells the scheduler how many groups one team hosts.
func (s *Server) newScheduler() (*sched.Scheduler, error) {
	groupsPerWorker := 0
	if s.cfg.Hier {
		groupsPerWorker = hier.From(s.topo, s.g).NumGroups()
	}
	return sched.New(sched.Config{
		MinWorkers:  s.cfg.Teams,
		MaxWorkers:  s.cfg.MaxTeams,
		QueueCap:    s.cfg.QueueCap,
		BatchMax:    s.cfg.BatchMax,
		StarveAfter: s.cfg.StarveAfter,
		IdleAfter:   s.cfg.TeamIdleAfter,
		Weights: [sched.NumClasses]float64{
			sched.ClassInteractive: s.cfg.InteractiveWeight,
			sched.ClassBatch:       s.cfg.BatchWeight,
		},
		// One registry backs the whole service: the scheduler's "sched.*"
		// instruments live next to the serving layer's "server.*" ones, and
		// its queue-wait/batch spans land on the recorder's sched lane.
		Metrics:         s.met.reg,
		Trace:           s.rec,
		TraceLane:       s.cfg.NProcs + 1,
		GroupsPerWorker: groupsPerWorker,
		NewWorker: func() (sched.Worker, error) {
			tm, err := armci.NewTeam(s.topo)
			if err != nil {
				return nil, err
			}
			return &teamWorker{tm: tm}, nil
		},
		Exec: s.schedExec,
	})
}

// schedExec runs one dispatch: a singleton distributed job on the worker's
// team, or small GEMMs (one that the scheduler had its submitter run, w nil;
// a locality-sorted backlog; one alone when brownout shed the coalescing) on
// the goroutine that holds them. Only distributed jobs carry recovery state.
func (s *Server) schedExec(w sched.Worker, tasks []*sched.Task) sched.Outcome {
	if tasks[0].Payload.(*schedJob).rec != nil {
		return s.execDistributedTask(w.(*teamWorker).tm, tasks[0])
	}
	return s.execGemmBatch(tasks)
}

// execDistributedTask runs one large multiply, translating the run outcome
// into the scheduler's resilience protocol: a leaked-rank watchdog report
// poisons the team (ReplaceWorker) and, if the task itself never completed,
// requeues it. On the cluster route the team hosting the dispatch only
// bounds how many cluster jobs are in flight — one per team, so with the
// default two teams two interactive jobs can hold both nodes at once (the
// pool's router takes any free node for them). The pool's worker processes
// do the arithmetic, and a node failure is repaired inside the pool, so it
// never poisons the team.
func (s *Server) execDistributedTask(tm *armci.Team, t *sched.Task) sched.Outcome {
	job := t.Payload.(*schedJob)
	if hook := s.batchHook(); hook != nil {
		hook(t)
	}
	if t.Cancelled() {
		t.Finish(sched.ErrCancelled)
		return sched.Outcome{}
	}
	if t.Attempts() > 1 {
		// The scheduler requeued this task (watchdog-leaked team). The failed
		// dispatch already banked its salvage, so the replacement team
		// resumes rather than double-accumulates; only the books are due.
		s.met.noteRetry(job.rec.resumedTasks())
	}
	job.started = time.Now()
	job.batch = 1
	out, err := s.runDistributed(tm, job)
	job.out = out
	job.finished = time.Now()

	var werr *armci.WatchdogError
	if errors.As(err, &werr) && len(werr.Leaked) > 0 {
		// The team is wedged: report, replace it, and let the scheduler
		// retry the job on the replacement (it produced no result).
		return sched.Outcome{Unfinished: []*sched.Task{t}, ReplaceWorker: true, Err: err}
	}
	t.Finish(err)
	return sched.Outcome{}
}

// gemmBatch is one dispatch of small GEMMs while it is being computed.
type gemmBatch struct {
	s       *Server
	tasks   []*sched.Task
	next    atomic.Int64 // the shared counter every executor pulls from
	threads int
	hook    func(*sched.Task)

	helpers sync.WaitGroup
	mu      sync.Mutex
	err     error // the first executor failure
}

// execGemmBatch computes a dispatch of small GEMMs on the goroutine that was
// handed it, joined for more than one task by helpers — executors never
// outnumber processors or tasks — that pull from the same counter. A task an
// executor died on comes back unfinished, for the scheduler to requeue.
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
	if b.err == nil {
		// drain finishes every task it reaches, so a clean run means a clean
		// batch.
		return sched.Outcome{}
	}
	out := sched.Outcome{Err: b.err}
	for _, t := range tasks {
		if !t.Finished() {
			out.Unfinished = append(out.Unfinished, t)
		}
	}
	return out
}

// drain is one executor: it computes tasks off the shared counter until
// none are left. A panic — the kernel's, or the test hook's — ends the
// executor and is recorded as the batch's error; the others carry on, so
// only the task it was holding is left unfinished.
func (b *gemmBatch) drain() {
	defer func() {
		if r := recover(); r != nil {
			b.mu.Lock()
			if b.err == nil {
				b.err = fmt.Errorf("server: small-route executor panicked: %v", r)
			}
			b.mu.Unlock()
		}
	}()
	n := len(b.tasks)
	for {
		i := int(b.next.Add(1)) - 1
		if i >= n {
			return
		}
		t := b.tasks[i]
		if b.hook != nil {
			b.hook(t)
		}
		if t.Cancelled() {
			t.Finish(sched.ErrCancelled)
			continue
		}
		job := t.Payload.(*schedJob)
		job.started = time.Now()
		job.batch = n
		out, buf, err := b.s.gemmLocal(job.req, job.cs, job.d, b.threads)
		job.out, job.outBuf = out, buf
		job.finished = time.Now()
		t.Finish(err)
	}
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

// gemmLocal runs one product on the local packed parallel kernel. The
// result is bit-identical for every threads value (GemmParallel's
// guarantee), which is what makes batched and unbatched execution
// indistinguishable to the caller. The result is written into a buffer from
// the operand pool, returned beside it for the handler to give back — unless
// the result cache is on: a cached result outlives its request, so it gets
// an allocation of its own that the cache can keep. A pooled buffer arrives
// dirty; beta == 0 makes the kernel clear it, any other beta overwrites it
// with the request's C first.
func (s *Server) gemmLocal(req *MultiplyRequest, cs core.Case, d core.Dims, threads int) (*mat.Matrix, *alignedBuf, error) {
	a := &mat.Matrix{Rows: req.ARows, Cols: req.ACols, Stride: req.ACols, Data: req.A}
	b := &mat.Matrix{Rows: req.BRows, Cols: req.BCols, Stride: req.BCols, Data: req.B}
	var buf *alignedBuf
	var c *mat.Matrix
	if s.cache == nil {
		buf = s.pool.get(d.M * d.N)
		c = &mat.Matrix{Rows: d.M, Cols: d.N, Stride: d.N, Data: buf.data}
	} else {
		c = mat.New(d.M, d.N)
	}
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
		s.pool.put(buf)
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
