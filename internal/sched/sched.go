// Package sched is the workload scheduler between request admission and
// a fixed pool of engines: it decides WHAT runs next and on WHOSE
// goroutine, while staying agnostic about what an engine is (Worker) and
// how work executes on it (Config.Exec).
//
// Every dispatch is exactly one task. Who runs it: a batchable task
// submitted while nothing is queued, a pool worker is idle and fewer than
// GOMAXPROCS such dispatches are in flight is dispatched on the goroutine
// that called Submit. It needs no engine (Exec gets a nil Worker), so
// handing it to a worker goroutine would buy two goroutine switches and a
// place in single file behind whatever that worker runs next, and nothing
// else. Everything else is queued for the pool in one FIFO run queue,
// served in arrival order.
//
// The pool is the MinWorkers workers New builds; it never grows, shrinks
// or replaces one. A task is dispatched at most once: the scheduler does
// not retry. Retrying is the caller's business — it knows what a failed
// attempt left behind — so a task its dispatch did not finish (Exec
// returned without it, or a caller-run Exec panicked) is finished with an
// error instead. Every accepted task is finished exactly once: by its
// executor, by that fallback, by queue-drop (cancelled before dispatch),
// or by Close.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"srumma/internal/obs"
)

var (
	// ErrQueueFull is returned by Submit when QueueCap tasks are already
	// admitted (queued + executing): backpressure, not buffering.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrClosed is returned by Submit after Close, and attached to tasks
	// flushed by an interrupted drain.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrCancelled finishes tasks whose Cancel channel fired before
	// dispatch.
	ErrCancelled = errors.New("sched: task cancelled before dispatch")

	// errNotFinished finishes a task its dispatch's Exec returned without
	// finishing.
	errNotFinished = errors.New("sched: dispatch returned without finishing the task")
)

// Worker is one engine owned by the pool — for the GEMM service a
// persistent armci.Team, in tests anything. The scheduler only creates
// (Config.NewWorker), hands to Exec, and closes them.
type Worker interface {
	Close() error
}

// Outcome is what Exec returns for one dispatch. It carries nothing: a
// dispatch reports through the tasks it finishes. It is kept so executors
// written against it, the benchmark's layer probe among them, still build.
type Outcome struct{}

// Config sizes the scheduler. NewWorker and Exec are required; everything
// else has serviceable defaults from fill().
type Config struct {
	// MinWorkers is the pool size: New builds this many workers and they
	// serve until Close (default 1). The name dates from an elastic pool;
	// it stays because benchmark/probe_sched.go sets it.
	MinWorkers int
	// QueueCap bounds admitted tasks — queued plus executing (default
	// 4*MinWorkers).
	QueueCap int
	// NewWorker creates a pool worker (required).
	NewWorker func() (Worker, error)
	// Exec runs one dispatch on a worker (required). tasks always holds
	// exactly one task; the slice form stays because
	// benchmark/probe_sched.go is written against it. Exec should Finish
	// the task, with an error if it failed: a task still unfinished when
	// Exec returns is finished with an error for it, and is never
	// dispatched again. w is nil for a dispatch run by Submit's caller (a
	// batchable task, see the package comment): batchable work must not
	// need the engine. Exec may then be running on several goroutines at
	// once.
	Exec func(w Worker, tasks []*Task) Outcome
	// Metrics is the registry the scheduler's counters live in (names
	// "sched.*"), so the serving layer can export scheduler and server
	// metrics from one namespace. A private registry is created when nil.
	Metrics *obs.Registry
	// Trace receives queue-wait and dispatch spans on lane TraceLane when
	// non-nil. Tracing off (nil, the default) costs nothing.
	Trace     *obs.Recorder
	TraceLane int
}

func (c Config) fill() Config {
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MinWorkers
	}
	return c
}

// Scheduler owns the run queue and the worker pool. Create with New, feed
// with Submit, stop with Close.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	q        runQueue
	busy     int // workers holding a dispatch (popped, not yet returned)
	callers  int // caller-run dispatches in flight, at most maxCallers
	draining bool
	stopped  bool
	closeErr error

	ready chan struct{} // work-available wakeups (best effort, never lost)
	stop  chan struct{}
	wg    sync.WaitGroup

	// maxCallers is GOMAXPROCS at New: past it a caller-run dispatch would
	// only time-slice against the others, so the task queues instead.
	maxCallers int

	// Counters live in an obs.Registry (cfg.Metrics or a private one) under
	// "sched.*" names; the struct caches the pointers so hot paths never
	// take the registry lock.
	inflight *obs.Gauge // admitted and not yet finished

	submitted  *obs.Counter
	rejected   *obs.Counter
	completed  *obs.Counter
	failed     *obs.Counter
	cancelled  *obs.Counter
	dispatches *obs.Counter
	inline     *obs.Counter // dispatches run by Submit's caller
	expired    *obs.Counter
	qwait      *obs.Histogram // admission-to-dispatch wait
}

// New builds a scheduler and its MinWorkers workers synchronously (a
// factory failure closes the ones already built and fails New).
func New(cfg Config) (*Scheduler, error) {
	if cfg.NewWorker == nil || cfg.Exec == nil {
		return nil, errors.New("sched: Config.NewWorker and Config.Exec are required")
	}
	cfg = cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Scheduler{
		cfg:        cfg,
		ready:      make(chan struct{}, cfg.QueueCap),
		stop:       make(chan struct{}),
		maxCallers: runtime.GOMAXPROCS(0),
		inflight:   reg.Gauge("sched.in_flight"),
		submitted:  reg.Counter("sched.submitted"),
		rejected:   reg.Counter("sched.rejected"),
		completed:  reg.Counter("sched.completed"),
		failed:     reg.Counter("sched.failed"),
		cancelled:  reg.Counter("sched.cancelled"),
		dispatches: reg.Counter("sched.dispatches"),
		inline:     reg.Counter("sched.inline_dispatches"),
		expired:    reg.Counter("sched.expired_before_run"),
		qwait:      reg.Histogram("sched.queue_wait"),
	}
	initial := make([]Worker, 0, cfg.MinWorkers)
	for i := 0; i < cfg.MinWorkers; i++ {
		w, err := cfg.NewWorker()
		if err != nil {
			for _, prev := range initial {
				prev.Close()
			}
			return nil, fmt.Errorf("sched: starting worker %d: %w", i, err)
		}
		initial = append(initial, w)
	}
	for _, w := range initial {
		s.wg.Add(1)
		go s.runWorker(w)
	}
	return s, nil
}

// Queued returns the number of admitted tasks waiting for dispatch.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.len()
}

// Submit admits t or refuses with ErrQueueFull/ErrClosed. On admission the
// task WILL be finished eventually; wait on t.Done(). A batchable task may
// be dispatched on the calling goroutine (package comment): Submit then
// returns with t finished, and Done is already closed.
func (s *Scheduler) Submit(t *Task) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrClosed
	}
	if int(s.inflight.Load()) >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.rejected.Add(1)
		return ErrQueueFull
	}
	s.inflight.Add(1)
	t.s = s
	t.done = make(chan struct{})
	t.enq = time.Now()
	callerRun := t.Batchable && s.q.len() == 0 && s.busy < s.cfg.MinWorkers && s.callers < s.maxCallers
	if callerRun {
		s.callers++
		s.issueLocked(t, t.enq)
	} else {
		s.q.push(t)
	}
	s.mu.Unlock()
	s.submitted.Add(1)
	if callerRun {
		s.inline.Add(1)
		s.runCaller(t)
	} else {
		s.wake()
	}
	return nil
}

// runCaller is a caller-run dispatch: no worker, the same books
// as a worker's. A panic out of Exec must not unwind into Submit's caller
// with the task admitted and never finished, so it finishes the task with
// the panic as its error.
func (s *Scheduler) runCaller(t *Task) {
	defer func() {
		if r := recover(); r != nil {
			t.Finish(fmt.Errorf("sched: caller-run dispatch panicked: %v", r))
		}
		s.mu.Lock()
		s.callers--
		s.mu.Unlock()
	}()
	s.dispatch(nil, []*Task{t})
}

// wake nudges one worker. The channel is sized to QueueCap, so a full
// channel already holds at least as many wakeups as there can be queued
// tasks — dropping the send cannot strand work.
func (s *Scheduler) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// taskFinished is the single accounting point for settled tasks. It may
// run with or without s.mu held (queue drops hold it), so it touches only
// atomics.
func (s *Scheduler) taskFinished(t *Task, err error) {
	s.inflight.Add(-1)
	switch {
	case err == nil:
		s.completed.Add(1)
	case errors.Is(err, ErrCancelled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
	default:
		s.failed.Add(1)
	}
}

// issueLocked books t's passage from admitted to dispatched at now: the
// queue-wait sample and span.
func (s *Scheduler) issueLocked(t *Task, now time.Time) {
	s.qwait.Observe(now.Sub(t.enq).Seconds())
	if s.cfg.Trace != nil {
		// Queue-wait span: admission (enq) to dispatch, on the sched lane.
		s.cfg.Trace.RecordWall(s.cfg.TraceLane, obs.KindQueue, t.enq, now)
	}
}

// pop takes the next dispatch off the queue: the head, once any cancelled
// tasks surfacing there are dropped on the spot. nil means no dispatchable
// work; a task marks the calling worker busy until it says otherwise.
func (s *Scheduler) pop() *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.q.len() > 0 {
		t := s.q.pop()
		if t.Cancelled() {
			s.expired.Add(1)
			t.Finish(ErrCancelled)
			continue
		}
		s.issueLocked(t, time.Now())
		s.busy++
		return t
	}
	return nil
}

// runWorker is one pool worker: loop pop → exec until shut down, then
// close the engine.
func (s *Scheduler) runWorker(w Worker) {
	defer s.wg.Done()
	defer func() {
		if err := w.Close(); err != nil {
			s.mu.Lock()
			if s.closeErr == nil {
				s.closeErr = err
			}
			s.mu.Unlock()
		}
	}()
	one := make([]*Task, 1) // reused: a worker's dispatches allocate nothing
	for {
		t := s.pop()
		if t == nil {
			select {
			case <-s.stop:
				return
			case <-s.ready:
				continue
			}
		}
		one[0] = t
		s.dispatch(w, one)
		one[0] = nil
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// dispatch counts and runs the dispatch of one[0], on worker w or (w nil)
// on the goroutine that submitted it, and fails the task if Exec left it
// unfinished. A Task is single-use for this reason: the scheduler reads it
// until Exec returns, which may be after its Done closed.
func (s *Scheduler) dispatch(w Worker, one []*Task) {
	// Count the dispatch when it is issued, not when Exec returns: the
	// task Finish()es inside Exec, so an observer woken by its completion
	// must already see the dispatch that produced it in the counters.
	s.dispatches.Add(1)
	var t0 time.Time
	if s.cfg.Trace != nil {
		t0 = time.Now()
	}
	s.cfg.Exec(w, one)
	if s.cfg.Trace != nil {
		s.cfg.Trace.RecordWall(s.cfg.TraceLane, obs.KindBatch, t0, time.Now())
	}
	one[0].Finish(errNotFinished) // a no-op if Exec finished it
}

// Close drains and stops the scheduler: Submit starts refusing, admitted
// tasks run to completion (bounded by ctx — on expiry the queue is flushed
// with ErrClosed and the drain reports interruption), then the workers
// stop and their engines close. The first worker-close error (e.g. a
// leaked-rank report) is returned. Close is idempotent.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		done := s.stopped
		err := s.closeErr
		s.mu.Unlock()
		if !done {
			return errors.New("sched: Close already in progress")
		}
		return err
	}
	s.draining = true
	s.mu.Unlock()

	drainErr := error(nil)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			s.flush(ErrClosed)
			drainErr = fmt.Errorf("sched: drain interrupted: %w", ctx.Err())
		case <-tick.C:
			continue
		}
		break
	}

	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.mu.Unlock()

	waited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-ctx.Done():
		if drainErr == nil {
			drainErr = fmt.Errorf("sched: worker shutdown interrupted: %w", ctx.Err())
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if drainErr != nil {
		return drainErr
	}
	return s.closeErr
}

// flush finishes every queued task with err (drain interruption).
func (s *Scheduler) flush(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.q.len() > 0 {
		s.q.pop().Finish(err)
	}
}
