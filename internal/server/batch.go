package server

// Scheduler integration: the glue between internal/sched (which decides
// WHAT runs next) and the armci.Team engine pool (which runs it). A
// sched.Worker is a persistent team; a sched.Task carries one admitted
// multiply as a schedJob payload. Small batchable products are coalesced
// into one team job and executed as a dynamic task list — each rank pulls
// the next GEMM off a shared counter — so the team wake/barrier cost is
// paid once per batch instead of once per request. Results are bit
// identical to individual runs because mat.GemmParallel's stripe split is
// thread-count-invariant.
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
	"sync/atomic"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/hier"
	"srumma/internal/mat"
	"srumma/internal/rt"
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

	out      *mat.Matrix
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
			tm.SetRecorder(s.rec)
			return &teamWorker{tm: tm}, nil
		},
		Exec: s.schedExec,
	})
}

// schedExec runs one dispatch on a team: a singleton distributed job, or a
// locality-sorted batch of small GEMMs (a batch of one when brownout shed
// the coalescing). Only distributed jobs carry recovery state.
func (s *Server) schedExec(w sched.Worker, tasks []*sched.Task) sched.Outcome {
	tm := w.(*teamWorker).tm
	if tasks[0].Payload.(*schedJob).rec != nil {
		return s.execDistributedTask(tm, tasks[0])
	}
	return s.execGemmBatch(tm, tasks)
}

// execDistributedTask runs one large multiply, translating the run outcome
// into the scheduler's resilience protocol: a leaked-rank watchdog report
// poisons the team (ReplaceWorker) and, if the task itself never completed,
// requeues it. On the cluster route the team hosting the dispatch only
// serializes cluster jobs with the rest of the workload — the pool's worker
// processes do the arithmetic, and a node failure is repaired inside the
// pool, so it never poisons the team.
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

// execGemmBatch executes a coalesced batch of small GEMMs as ONE team job:
// the ranks pull tasks off a shared counter (the same dynamic owner-
// computes shape as the engine's task executor) and each task runs on the
// local packed kernel. One wake + one barrier pays for the whole batch.
func (s *Server) execGemmBatch(tm *armci.Team, tasks []*sched.Task) sched.Outcome {
	var next atomic.Int64
	hook := s.batchHook()
	n := len(tasks)
	threads := s.batchKernelThreads()
	if s.cfg.TraceSample > 1 {
		// Head-sampling: the batch records spans iff any member was sampled.
		traced := false
		for _, t := range tasks {
			if t.Payload.(*schedJob).traced {
				traced = true
				break
			}
		}
		if traced {
			tm.SetRecorder(s.rec)
		} else {
			tm.SetRecorder(nil)
		}
	}
	_, runErr := tm.Run(func(c rt.Ctx) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			t := tasks[i]
			if hook != nil {
				hook(t)
			}
			if t.Cancelled() {
				t.Finish(sched.ErrCancelled)
				continue
			}
			job := t.Payload.(*schedJob)
			job.started = time.Now()
			job.batch = n
			out, err := s.gemmLocal(job.req, job.cs, job.d, threads)
			job.out = out
			job.finished = time.Now()
			t.Finish(err)
		}
	})
	if runErr == nil {
		// The job function finishes every task it reaches, so a clean run
		// means a clean batch.
		return sched.Outcome{}
	}
	// A rank died mid-batch (panic or watchdog): the tasks it — or ranks
	// that aborted with it — never reached are requeued.
	out := sched.Outcome{Err: runErr}
	for _, t := range tasks {
		if !t.Finished() {
			out.Unfinished = append(out.Unfinished, t)
		}
	}
	var werr *armci.WatchdogError
	if errors.As(runErr, &werr) && len(werr.Leaked) > 0 {
		out.ReplaceWorker = true
	}
	return out
}

// batchKernelThreads is the local-kernel width each rank uses inside a
// batch: the configured per-rank width, so a full team of ranks running
// batch tasks concurrently saturates the machine without oversubscribing.
func (s *Server) batchKernelThreads() int {
	if s.cfg.KernelThreads > 0 {
		return s.cfg.KernelThreads
	}
	return armci.DefaultKernelThreads(s.cfg.NProcs)
}

// gemmLocal runs one product on the local packed parallel kernel. The
// result is bit-identical for every threads value (GemmParallel's
// guarantee), which is what makes batched and unbatched execution
// indistinguishable to the caller.
func (s *Server) gemmLocal(req *MultiplyRequest, cs core.Case, d core.Dims, threads int) (*mat.Matrix, error) {
	a := &mat.Matrix{Rows: req.ARows, Cols: req.ACols, Stride: req.ACols, Data: req.A}
	b := &mat.Matrix{Rows: req.BRows, Cols: req.BCols, Stride: req.BCols, Data: req.B}
	c := mat.New(d.M, d.N)
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
		return nil, err
	}
	return c, nil
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
