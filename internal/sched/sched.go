// Package sched is the workload scheduler between request admission and
// the engine pool: it decides WHAT runs next, on HOW MANY engines and on
// WHOSE goroutine, while staying agnostic about what an engine is (Worker)
// and how work executes on it (Config.Exec).
//
// Who runs a dispatch: a batchable task submitted while nothing is queued,
// a pool worker is idle and fewer than GOMAXPROCS such dispatches are in
// flight is dispatched — alone — on the goroutine that called Submit. It
// needs no engine (Exec gets a nil Worker), so handing it to a worker
// goroutine would buy two goroutine switches and a place in single file
// behind whatever that worker runs next, and nothing else. Everything else
// is queued for the pool, where three policies compose — they exist for
// contention, and apply exactly when there is some:
//
//   - batched execution: queued batchable tasks of one class are coalesced
//     into a single dispatch, sorted by locality key, so equal shapes run
//     back to back and one worker hand-off serves the whole backlog;
//   - priority + deadline dispatch: per-class index-heap run queues with
//     EDF order within a class, weighted fair queueing across classes, and
//     starvation aging (a head task waiting past StarveAfter is served
//     regardless of weights);
//   - elastic pooling: the worker pool grows toward MaxWorkers when the
//     queue backs up, shrinks toward MinWorkers when workers sit idle, and
//     replaces workers the executor reports as poisoned. A dispatch that
//     dies mid-batch returns its unfinished tasks, which are requeued up
//     to MaxAttempts.
//
// The scheduler guarantees every accepted task is finished exactly once:
// by its executor, by queue-drop (cancelled before dispatch), by retry
// exhaustion, or by Close.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
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
	// ErrRetriesExhausted finishes tasks requeued MaxAttempts times by
	// failing dispatches.
	ErrRetriesExhausted = errors.New("sched: dispatch retries exhausted")
)

// Worker is one engine owned by the pool — for the GEMM service a
// persistent armci.Team, in tests anything. The scheduler only creates
// (Config.NewWorker), hands to Exec, and closes them.
type Worker interface {
	Close() error
}

// Outcome reports one dispatch back to the scheduler. The zero value means
// "all tasks finished, worker healthy".
type Outcome struct {
	// Unfinished are the batch's tasks the executor did not Finish (a crash
	// mid-batch): the scheduler requeues them, dropping any that exceed
	// MaxAttempts with ErrRetriesExhausted.
	Unfinished []*Task
	// ReplaceWorker marks the worker poisoned (e.g. leaked ranks): the
	// scheduler closes it and creates a fresh one in its place.
	ReplaceWorker bool
	// Err is the dispatch failure cause, attached to tasks dropped for
	// retry exhaustion.
	Err error
}

// Config sizes the scheduler. NewWorker and Exec are required; everything
// else has serviceable defaults from fill().
type Config struct {
	// MinWorkers..MaxWorkers bound the elastic pool (defaults 1..MinWorkers,
	// i.e. a fixed pool unless MaxWorkers is raised).
	MinWorkers int
	MaxWorkers int
	// QueueCap bounds admitted tasks — queued plus executing (default
	// 4*MaxWorkers).
	QueueCap int
	// BatchMax caps tasks coalesced into one dispatch (default 32).
	BatchMax int
	// Weights are the per-class fair shares (default interactive 4,
	// batch 1).
	Weights [NumClasses]float64
	// StarveAfter bounds cross-class starvation: a class head waiting this
	// long is dispatched regardless of weights (default 2s; <0 disables).
	StarveAfter time.Duration
	// IdleAfter is how long a worker above MinWorkers may sit idle before
	// the pool shrinks it away (default 30s).
	IdleAfter time.Duration
	// GrowAt is the queue depth per worker that triggers pool growth
	// (default 2: grow when queued > 2*workers).
	GrowAt int
	// MaxAttempts bounds dispatches per task before it is failed with
	// ErrRetriesExhausted (default 3).
	MaxAttempts int
	// GroupsPerWorker declares how many rank groups each worker engine
	// hosts (hierarchical mode: an engine's ranks are carved into SUMMA
	// groups, see internal/hier). The scheduler does not change its
	// dispatch decisions on it — a worker is still the dispatch unit —
	// but the elastic pool doubles as the group manager: growing or
	// shrinking by one worker adds or retires GroupsPerWorker groups,
	// and the live group count is exported as the "sched.groups" gauge
	// and Scheduler.Groups(). 0 means flat mode (one implicit group per
	// worker is NOT assumed; the gauge stays 0).
	GroupsPerWorker int
	// NewWorker creates a pool worker (required).
	NewWorker func() (Worker, error)
	// Exec runs one dispatch — a locality-sorted batch of one class, or a
	// single non-batchable task — on a worker (required). It must Finish
	// every task it completes and return the rest in Outcome.Unfinished.
	// w is nil for a dispatch run by Submit's caller (one batchable task,
	// see the package comment): batchable work must not need the engine.
	// Exec may then be running on several goroutines at once.
	Exec func(w Worker, tasks []*Task) Outcome
	// Now is the clock used for deadlines and aging (default time.Now;
	// injectable for tests).
	Now func() time.Time
	// Metrics is the registry the scheduler's counters live in (names
	// "sched.*"). A private registry is created when nil; either way
	// Scheduler.Registry returns the one in use, so the serving layer can
	// export scheduler and server metrics from one namespace.
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
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxWorkers
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.Weights[ClassInteractive] <= 0 {
		c.Weights[ClassInteractive] = 4
	}
	if c.Weights[ClassBatch] <= 0 {
		c.Weights[ClassBatch] = 1
	}
	if c.StarveAfter == 0 {
		c.StarveAfter = 2 * time.Second
	}
	if c.IdleAfter <= 0 {
		c.IdleAfter = 30 * time.Second
	}
	if c.GrowAt <= 0 {
		c.GrowAt = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Scheduler owns the run queue and the elastic worker pool. Create with
// New, feed with Submit, stop with Close.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	q        runQueue
	workers  int
	busy     int // workers holding a dispatch (popped, not yet settled)
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
	reg      *obs.Registry
	inflight *obs.Gauge // admitted and not yet finished
	groups   *obs.Gauge // live rank groups (workers * GroupsPerWorker)

	submitted       *obs.Counter
	rejected        *obs.Counter
	completed       *obs.Counter
	failed          *obs.Counter
	cancelled       *obs.Counter
	dispatches      *obs.Counter
	dispatchedTasks *obs.Counter
	inline          *obs.Counter // dispatches run by Submit's caller
	maxBatch        *obs.Counter // running maximum via RaiseTo
	requeued        *obs.Counter
	retriesDropped  *obs.Counter
	expired         *obs.Counter
	misses          *obs.Counter
	starved         *obs.Counter
	grown           *obs.Counter
	shrunk          *obs.Counter
	replaced        *obs.Counter
	growFailed      *obs.Counter
	served          [NumClasses]*obs.Counter
	qwait           [NumClasses]*obs.Histogram // admission-to-dispatch wait
}

// New builds a scheduler and spins up MinWorkers workers synchronously (a
// factory failure fails New).
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
		cfg:             cfg,
		ready:           make(chan struct{}, cfg.QueueCap),
		stop:            make(chan struct{}),
		maxCallers:      runtime.GOMAXPROCS(0),
		reg:             reg,
		inflight:        reg.Gauge("sched.in_flight"),
		groups:          reg.Gauge("sched.groups"),
		submitted:       reg.Counter("sched.submitted"),
		rejected:        reg.Counter("sched.rejected"),
		completed:       reg.Counter("sched.completed"),
		failed:          reg.Counter("sched.failed"),
		cancelled:       reg.Counter("sched.cancelled"),
		dispatches:      reg.Counter("sched.dispatches"),
		dispatchedTasks: reg.Counter("sched.dispatched_tasks"),
		inline:          reg.Counter("sched.inline_dispatches"),
		maxBatch:        reg.Counter("sched.max_batch"),
		requeued:        reg.Counter("sched.requeued"),
		retriesDropped:  reg.Counter("sched.retries_exhausted"),
		expired:         reg.Counter("sched.expired_before_run"),
		misses:          reg.Counter("sched.deadline_misses"),
		starved:         reg.Counter("sched.starvation_promotions"),
		grown:           reg.Counter("sched.pool_grown"),
		shrunk:          reg.Counter("sched.pool_shrunk"),
		replaced:        reg.Counter("sched.pool_replaced"),
		growFailed:      reg.Counter("sched.pool_grow_failed"),
	}
	for c := 0; c < NumClasses; c++ {
		s.served[c] = reg.Counter("sched.served." + Class(c).String())
		s.qwait[c] = reg.Histogram("sched.queue_wait." + Class(c).String())
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
	s.workers = len(initial)
	s.syncGroupsLocked()
	for _, w := range initial {
		s.wg.Add(1)
		go s.runWorker(w)
	}
	return s, nil
}

// Registry returns the obs.Registry holding the scheduler's "sched.*"
// counters — cfg.Metrics when one was provided, a private registry
// otherwise.
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Workers returns the current pool size.
func (s *Scheduler) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// Groups returns the live rank-group count under group management
// (Workers() * GroupsPerWorker; 0 in flat mode).
func (s *Scheduler) Groups() int {
	return int(s.groups.Load())
}

// Queued returns the number of admitted tasks waiting for dispatch.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.len()
}

func (s *Scheduler) now() time.Time { return s.cfg.Now() }

// Submit admits t or refuses with ErrQueueFull/ErrClosed. On admission the
// task WILL be finished eventually; wait on t.Done(). A batchable task may
// be dispatched on the calling goroutine (package comment): Submit then
// returns after Exec did, normally with t finished — but a dispatch that
// failed leaves t requeued for a worker, so callers wait on Done either way.
func (s *Scheduler) Submit(t *Task) error {
	if t.Class >= NumClasses {
		return fmt.Errorf("sched: invalid class %d", t.Class)
	}
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
	now := s.now()
	callerRun := t.Batchable && s.q.len() == 0 && s.busy < s.workers && s.callers < s.maxCallers
	if callerRun {
		s.callers++
		t.enq = now
		s.q.vtime[t.Class] += s.issueLocked(t, now) / s.cfg.Weights[t.Class]
	} else {
		s.q.push(t, now)
		s.resizeLocked()
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

// runCaller is a caller-run dispatch: one task, no worker, the same books
// and the same settle as a worker's. A panic out of Exec must not unwind
// into Submit's caller with the task admitted and never finished, so it is
// turned into a failed dispatch: the task is requeued and a worker tries it.
func (s *Scheduler) runCaller(t *Task) {
	batch := []*Task{t}
	out := func() (out Outcome) {
		defer func() {
			if r := recover(); r != nil {
				out = Outcome{Unfinished: batch, Err: fmt.Errorf("sched: caller-run dispatch panicked: %v", r)}
			}
		}()
		return s.dispatch(nil, batch)
	}()
	s.settle(out)
	s.mu.Lock()
	s.callers--
	s.mu.Unlock()
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

// resizeLocked grows the pool toward the queue-depth target and repairs it
// back up to MinWorkers after factory failures.
func (s *Scheduler) resizeLocked() {
	for s.workers < s.cfg.MinWorkers {
		s.spawnLocked()
	}
	if queued := s.q.len(); s.workers < s.cfg.MaxWorkers && queued > s.cfg.GrowAt*s.workers {
		s.grown.Add(1)
		s.spawnLocked()
	}
}

func (s *Scheduler) spawnLocked() {
	s.workers++
	s.syncGroupsLocked()
	s.wg.Add(1)
	go s.runWorker(nil)
}

// syncGroupsLocked keeps the group-manager gauge in step with the pool:
// every worker hosts GroupsPerWorker rank groups, so pool elasticity IS
// group elasticity.
func (s *Scheduler) syncGroupsLocked() {
	if s.cfg.GroupsPerWorker > 0 {
		s.groups.Set(int64(s.workers * s.cfg.GroupsPerWorker))
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
		if !t.Deadline.IsZero() && s.now().After(t.Deadline) {
			s.misses.Add(1)
		}
	case errors.Is(err, ErrCancelled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
	default:
		s.failed.Add(1)
	}
	s.served[t.Class].Add(1)
}

// pickClassLocked chooses the class to dispatch from: a starving head
// overrides the weighted-fair choice (oldest starving head wins); ties on
// virtual time go to the lower class index (interactive).
func (s *Scheduler) pickClassLocked(now time.Time) (Class, bool) {
	aged, fair := -1, -1
	var oldest time.Time
	for c := 0; c < NumClasses; c++ {
		h := s.q.heaps[c]
		if len(h) == 0 {
			continue
		}
		head := h[0]
		if s.cfg.StarveAfter > 0 && now.Sub(head.enq) >= s.cfg.StarveAfter {
			if aged < 0 || head.enq.Before(oldest) {
				aged = c
				oldest = head.enq
			}
		}
		if fair < 0 || s.q.vtime[c] < s.q.vtime[fair] {
			fair = c
		}
	}
	if aged >= 0 {
		if aged != fair {
			s.starved.Add(1)
		}
		return Class(aged), true
	}
	if fair >= 0 {
		return Class(fair), true
	}
	return 0, false
}

// issueLocked books t's passage from admitted to dispatched at now — the
// attempt, the queue-wait sample and span — and returns its fairness cost.
func (s *Scheduler) issueLocked(t *Task, now time.Time) float64 {
	t.attempts.Add(1)
	// Queue-wait lands in the per-class histogram so /metrics separates
	// wait p99 from service p99 — the queueing-delay half of latency.
	s.qwait[t.Class].Observe(now.Sub(t.enq).Seconds())
	if s.cfg.Trace != nil {
		// Queue-wait span: admission (enq) to dispatch, on the sched lane.
		s.cfg.Trace.RecordWall(s.cfg.TraceLane, obs.KindQueue, t.enq, now)
	}
	return max(t.Cost, 1)
}

// popBatch assembles the next dispatch into buf: the picked class's EDF
// head, extended with up to BatchMax-1 further batchable heads of the same
// class, sorted by locality key. Cancelled tasks surfacing at the head are
// dropped on the spot. An empty result means no dispatchable work; a
// non-empty one marks the calling worker busy until it says otherwise.
func (s *Scheduler) popBatch(buf []*Task) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	c, ok := s.pickClassLocked(now)
	if !ok {
		return buf
	}
	h := &s.q.heaps[c]
	var cost float64
	for len(*h) > 0 {
		head := (*h)[0]
		if head.Cancelled() {
			s.q.popHead(c)
			s.expired.Add(1)
			head.Finish(ErrCancelled)
			continue
		}
		if len(buf) > 0 && (!head.Batchable || len(buf) >= s.cfg.BatchMax) {
			break
		}
		s.q.popHead(c)
		cost += s.issueLocked(head, now)
		buf = append(buf, head)
		if !head.Batchable {
			break
		}
	}
	if len(buf) == 0 {
		return buf
	}
	s.busy++
	s.q.vtime[c] += cost / s.cfg.Weights[c]
	if len(buf) > 1 {
		sort.Slice(buf, func(i, j int) bool {
			if buf[i].LocKey != buf[j].LocKey {
				return buf[i].LocKey < buf[j].LocKey
			}
			return buf[i].seq < buf[j].seq
		})
	}
	return buf
}

// runWorker is one pool worker: create the engine if needed, then loop
// pop → exec → requeue/replace until shut down or shrunk away.
func (s *Scheduler) runWorker(w Worker) {
	defer s.wg.Done()
	if w == nil {
		var err error
		w, err = s.cfg.NewWorker()
		if err != nil {
			s.growFailed.Add(1)
			s.mu.Lock()
			s.workers--
			s.mu.Unlock()
			return
		}
	}
	defer func() {
		if w == nil {
			return
		}
		if err := w.Close(); err != nil {
			s.mu.Lock()
			if s.closeErr == nil {
				s.closeErr = err
			}
			s.mu.Unlock()
		}
	}()
	batch := make([]*Task, 0, s.cfg.BatchMax)
	idle := time.NewTimer(s.cfg.IdleAfter)
	defer idle.Stop()
	for {
		batch = s.popBatch(batch[:0])
		if len(batch) == 0 {
			select {
			case <-s.stop:
				return
			default:
			}
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(s.cfg.IdleAfter)
			select {
			case <-s.stop:
				return
			case <-s.ready:
				continue
			case <-idle.C:
				if s.tryShrink() {
					return
				}
				continue
			}
		}
		out := s.dispatch(w, batch)
		s.settle(out)
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
		if out.ReplaceWorker {
			w.Close()
			w = nil
			s.replaced.Add(1)
			nw, err := s.cfg.NewWorker()
			if err != nil {
				// Could not replace: shrink rather than pool a corpse; the
				// next Submit repairs the pool back up to MinWorkers.
				s.growFailed.Add(1)
				s.mu.Lock()
				s.workers--
				s.mu.Unlock()
				return
			}
			w = nw
		}
	}
}

// dispatch counts and runs one dispatch, on worker w or (w nil) on the
// goroutine that submitted its only task.
func (s *Scheduler) dispatch(w Worker, batch []*Task) Outcome {
	// Count the dispatch when it is issued, not when Exec returns:
	// tasks Finish() inside Exec, so an observer woken by a completion
	// must already see the dispatch that produced it in the counters.
	s.dispatches.Add(1)
	s.dispatchedTasks.Add(int64(len(batch)))
	s.maxBatch.RaiseTo(int64(len(batch)))
	var t0 time.Time
	if s.cfg.Trace != nil {
		t0 = s.now()
	}
	out := s.cfg.Exec(w, batch)
	if s.cfg.Trace != nil {
		s.cfg.Trace.RecordWall(s.cfg.TraceLane, obs.KindBatch, t0, s.now())
	}
	return out
}

// settle requeues a failed dispatch's unfinished tasks, dropping those out
// of attempts.
func (s *Scheduler) settle(out Outcome) {
	for _, t := range out.Unfinished {
		if t == nil || t.Finished() {
			continue
		}
		if int(t.attempts.Load()) >= s.cfg.MaxAttempts {
			cause := out.Err
			if cause == nil {
				cause = errors.New("dispatch failed")
			}
			s.retriesDropped.Add(1)
			t.Finish(fmt.Errorf("%w (%d attempts): %v", ErrRetriesExhausted, t.Attempts(), cause))
			continue
		}
		s.mu.Lock()
		s.q.push(t, t.enq) // keep the original admission time: aging still sees it
		s.mu.Unlock()
		s.requeued.Add(1)
		s.wake()
	}
}

// tryShrink retires this worker if the pool is above MinWorkers and there
// is genuinely nothing to do.
func (s *Scheduler) tryShrink() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.workers <= s.cfg.MinWorkers || s.q.len() > 0 {
		return false
	}
	s.workers--
	s.syncGroupsLocked()
	s.shrunk.Add(1)
	return true
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
	for c := 0; c < NumClasses; c++ {
		for len(s.q.heaps[c]) > 0 {
			t := s.q.popHead(Class(c))
			t.Finish(err)
		}
	}
}
