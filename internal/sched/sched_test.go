package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- test harness ----------------------------------------------------------

type fakeWorker struct {
	id     int
	closed atomic.Bool
}

func (w *fakeWorker) Close() error {
	w.closed.Store(true)
	return nil
}

// harness wires a Scheduler to an in-memory executor that records every
// dispatch and can be blocked via gate tasks.
type harness struct {
	t *testing.T
	s *Scheduler

	mu         sync.Mutex
	dispatches [][]*Task
	byCaller   []bool // per dispatch: Exec saw a nil worker
	made       int
}

func newHarness(t *testing.T, cfg Config, exec func(w Worker, tasks []*Task) Outcome) *harness {
	t.Helper()
	h := &harness{t: t}
	factory := cfg.NewWorker
	cfg.NewWorker = func() (Worker, error) {
		h.mu.Lock()
		h.made++
		id := h.made
		h.mu.Unlock()
		if factory != nil {
			return factory()
		}
		return &fakeWorker{id: id}, nil
	}
	if exec == nil {
		exec = func(w Worker, tasks []*Task) Outcome {
			for _, tk := range tasks {
				tk.Finish(nil)
			}
			return Outcome{}
		}
	}
	cfg.Exec = func(w Worker, tasks []*Task) Outcome {
		cp := append([]*Task(nil), tasks...)
		h.mu.Lock()
		h.dispatches = append(h.dispatches, cp)
		h.byCaller = append(h.byCaller, w == nil)
		h.mu.Unlock()
		return exec(w, tasks)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.s = s
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.s.Close(ctx)
	})
	return h
}

func (h *harness) dispatchOrder() []*Task {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*Task
	for _, d := range h.dispatches {
		out = append(out, d...)
	}
	return out
}

func (h *harness) workersMade() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.made
}

// gate is a payload that blocks the executor until released; it pins a
// worker so the queue can be built up deterministically behind it.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

// gateExec finishes plain tasks immediately and parks on gate payloads.
func gateExec(w Worker, tasks []*Task) Outcome {
	for _, tk := range tasks {
		if g, ok := tk.Payload.(*gate); ok {
			close(g.entered)
			<-g.release
		}
		tk.Finish(nil)
	}
	return Outcome{}
}

// submitGate pins the (single) worker behind a gate and waits until the
// executor has actually entered it.
func (h *harness) submitGate() *gate {
	h.t.Helper()
	g := newGate()
	tk := &Task{Payload: g}
	if err := h.s.Submit(tk); err != nil {
		h.t.Fatalf("submit gate: %v", err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		h.t.Fatalf("gate never entered")
	}
	return g
}

func mustSubmit(t *testing.T, s *Scheduler, tk *Task) {
	t.Helper()
	if err := s.Submit(tk); err != nil {
		t.Fatalf("Submit: %v", err)
	}
}

func waitDone(t *testing.T, tasks ...*Task) {
	t.Helper()
	for i, tk := range tasks {
		select {
		case <-tk.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("task %d never finished", i)
		}
	}
}

// fakeClock is an injectable Config.Now.
type fakeClock struct{ t atomic.Int64 }

func newFakeClock(at time.Time) *fakeClock {
	c := &fakeClock{}
	c.t.Store(at.UnixNano())
	return c
}
func (c *fakeClock) now() time.Time          { return time.Unix(0, c.t.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

// ---- behavior --------------------------------------------------------------

func TestSchedulerRunsTasks(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 16}, nil)
	tasks := make([]*Task, 8)
	for i := range tasks {
		tasks[i] = &Task{Payload: i}
		mustSubmit(t, h.s, tasks[i])
	}
	waitDone(t, tasks...)
	for i, tk := range tasks {
		if err := tk.Err(); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	snap := h.s.Snapshot()
	if snap.Completed != 8 || snap.Submitted != 8 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestSchedulerEDFWithinClass: with a single pinned worker, queued tasks of
// one class dispatch earliest-deadline-first regardless of arrival order.
func TestSchedulerEDFWithinClass(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 16}, gateExec)
	g := h.submitGate()

	base := time.Now().Add(time.Hour)
	order := []int{3, 0, 2, 1} // submit deadlines out of order
	tasks := make([]*Task, len(order))
	for i, d := range order {
		tasks[i] = &Task{Deadline: base.Add(time.Duration(d) * time.Minute), Payload: d}
		mustSubmit(t, h.s, tasks[i])
	}
	close(g.release)
	waitDone(t, tasks...)

	got := h.dispatchOrder()[1:] // strip the gate
	for i, tk := range got {
		if tk.Payload.(int) != i {
			t.Fatalf("dispatch %d: deadline rank %v, want %d", i, tk.Payload, i)
		}
	}
}

// TestSchedulerBatchCoalescing: queued batchable tasks of one class
// dispatch as a single locality-sorted batch.
func TestSchedulerBatchCoalescing(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 32, BatchMax: 16}, gateExec)
	g := h.submitGate()

	keys := []uint64{5, 1, 9, 1, 3, 7, 2, 8}
	tasks := make([]*Task, len(keys))
	for i, k := range keys {
		tasks[i] = &Task{Batchable: true, LocKey: k, Payload: i}
		mustSubmit(t, h.s, tasks[i])
	}
	close(g.release)
	waitDone(t, tasks...)

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.dispatches) != 2 { // gate + one coalesced batch
		t.Fatalf("got %d dispatches, want 2 (gate + batch)", len(h.dispatches))
	}
	batch := h.dispatches[1]
	if len(batch) != len(keys) {
		t.Fatalf("batch size %d, want %d", len(batch), len(keys))
	}
	for i := 1; i < len(batch); i++ {
		if batch[i-1].LocKey > batch[i].LocKey {
			t.Fatalf("batch not locality-sorted: key[%d]=%d > key[%d]=%d",
				i-1, batch[i-1].LocKey, i, batch[i].LocKey)
		}
		if batch[i-1].LocKey == batch[i].LocKey && batch[i-1].seq > batch[i].seq {
			t.Fatalf("equal keys not FIFO at %d", i)
		}
	}
	snap := h.s.Snapshot()
	if snap.MaxBatch != int64(len(keys)) {
		t.Fatalf("MaxBatch = %d, want %d", snap.MaxBatch, len(keys))
	}
	if snap.BatchOccupancy <= 1 {
		t.Fatalf("BatchOccupancy = %v, want > 1", snap.BatchOccupancy)
	}
}

// TestSchedulerBatchMaxRespected: a backlog larger than BatchMax splits
// into dispatches of at most BatchMax tasks.
func TestSchedulerBatchMaxRespected(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 64, BatchMax: 4}, gateExec)
	g := h.submitGate()
	tasks := make([]*Task, 10)
	for i := range tasks {
		tasks[i] = &Task{Batchable: true, Payload: i}
		mustSubmit(t, h.s, tasks[i])
	}
	close(g.release)
	waitDone(t, tasks...)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.dispatches[1:] {
		if len(d) > 4 {
			t.Fatalf("dispatch of %d tasks exceeds BatchMax 4", len(d))
		}
	}
}

// TestSchedulerNonBatchableSingleton: a non-batchable task never rides in a
// multi-task dispatch.
func TestSchedulerNonBatchableSingleton(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 32}, gateExec)
	g := h.submitGate()
	var tasks []*Task
	for i := 0; i < 6; i++ {
		tk := &Task{Batchable: i%2 == 0, Payload: i}
		tasks = append(tasks, tk)
		mustSubmit(t, h.s, tk)
	}
	close(g.release)
	waitDone(t, tasks...)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.dispatches {
		if len(d) > 1 {
			for _, tk := range d {
				if !tk.Batchable {
					t.Fatalf("non-batchable task in a %d-task dispatch", len(d))
				}
			}
		}
	}
}

// TestSchedulerWeightedFairness: with both classes backlogged, the 4:1
// default weights serve roughly four interactive tasks per batch task.
func TestSchedulerWeightedFairness(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 64, StarveAfter: -1}, gateExec)
	g := h.submitGate()
	var tasks []*Task
	for i := 0; i < 20; i++ {
		ti := &Task{Class: ClassInteractive, Payload: i}
		tb := &Task{Class: ClassBatch, Payload: i}
		tasks = append(tasks, ti, tb)
		mustSubmit(t, h.s, ti)
		mustSubmit(t, h.s, tb)
	}
	close(g.release)
	waitDone(t, tasks...)

	order := h.dispatchOrder()[1:]
	// Count interactive completions in the first half of the schedule: with
	// weights 4:1 the share must be close to 4/5, certainly above 3/5.
	half := order[:len(order)/2]
	ni := 0
	for _, tk := range half {
		if tk.Class == ClassInteractive {
			ni++
		}
	}
	if ni*5 < len(half)*3 {
		t.Fatalf("interactive share %d/%d below weighted-fair expectation", ni, len(half))
	}
	// And batch work is not locked out entirely.
	nb := 0
	for _, tk := range half {
		if tk.Class == ClassBatch {
			nb++
		}
	}
	if nb == 0 {
		t.Fatalf("batch class fully starved in first half of schedule")
	}
}

// TestSchedulerStarvationAging: a batch head older than StarveAfter is
// dispatched ahead of the weighted-fair (interactive) pick.
func TestSchedulerStarvationAging(t *testing.T) {
	clk := newFakeClock(time.Unix(1000, 0))
	h := newHarness(t, Config{
		MinWorkers: 1, MaxWorkers: 1, QueueCap: 32,
		StarveAfter: 2 * time.Second, Now: clk.now,
	}, gateExec)
	// Pin the worker with a batch-class gate so both classes carry equal
	// virtual time when the contested pick happens (tie → interactive is
	// the fair choice; only aging can promote the batch head).
	g := newGate()
	gt := &Task{Class: ClassBatch, Payload: g}
	mustSubmit(t, h.s, gt)
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("gate never entered")
	}

	old := &Task{Class: ClassBatch, Payload: "old"}
	mustSubmit(t, h.s, old)
	clk.advance(3 * time.Second) // old batch task is now starving
	young := &Task{Class: ClassInteractive, Payload: "young"}
	mustSubmit(t, h.s, young)

	close(g.release)
	waitDone(t, old, young)
	order := h.dispatchOrder()[1:]
	if order[0].Payload != "old" {
		t.Fatalf("aged batch task not promoted: first dispatch %v", order[0].Payload)
	}
	if snap := h.s.Snapshot(); snap.StarvationPromotions == 0 {
		t.Fatalf("StarvationPromotions not counted")
	}
}

// TestSchedulerNoStarvationUnderLoad: under a sustained stream of
// interactive work on one worker, a batch task still completes within the
// aging bound.
func TestSchedulerNoStarvationUnderLoad(t *testing.T) {
	exec := func(w Worker, tasks []*Task) Outcome {
		time.Sleep(200 * time.Microsecond)
		for _, tk := range tasks {
			tk.Finish(nil)
		}
		return Outcome{}
	}
	h := newHarness(t, Config{
		MinWorkers: 1, MaxWorkers: 1, QueueCap: 8,
		StarveAfter: 20 * time.Millisecond,
		Weights:     [NumClasses]float64{1000, 0.001},
	}, exec)

	victim := &Task{Class: ClassBatch, Payload: "victim"}
	mustSubmit(t, h.s, victim)

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-victim.Done():
			return
		case <-deadline:
			t.Fatalf("batch task starved for 5s under interactive load")
		default:
		}
		tk := &Task{Class: ClassInteractive}
		if err := h.s.Submit(tk); err != nil {
			// queue full: let the worker drain a little
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSchedulerDropsCancelledAtHead: a task whose Cancel fires while queued
// is finished with ErrCancelled without reaching the executor.
func TestSchedulerDropsCancelledAtHead(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 16}, gateExec)
	g := h.submitGate()

	cancel := make(chan struct{})
	doomed := &Task{Cancel: cancel, Payload: "doomed"}
	live := &Task{Payload: "live"}
	mustSubmit(t, h.s, doomed)
	mustSubmit(t, h.s, live)
	close(cancel)
	close(g.release)

	waitDone(t, doomed, live)
	if !errors.Is(doomed.Err(), ErrCancelled) {
		t.Fatalf("doomed.Err() = %v, want ErrCancelled", doomed.Err())
	}
	if live.Err() != nil {
		t.Fatalf("live.Err() = %v", live.Err())
	}
	for _, tk := range h.dispatchOrder() {
		if tk.Payload == "doomed" {
			t.Fatalf("cancelled task reached the executor")
		}
	}
	if snap := h.s.Snapshot(); snap.ExpiredBeforeRun != 1 || snap.Cancelled != 1 {
		t.Fatalf("snapshot: expired=%d cancelled=%d", snap.ExpiredBeforeRun, snap.Cancelled)
	}
}

// TestSchedulerRequeueUnfinished: tasks an executor returns as Unfinished
// are requeued and complete on a later dispatch.
func TestSchedulerRequeueUnfinished(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	exec := func(w Worker, tasks []*Task) Outcome {
		if g, ok := tasks[0].Payload.(*gate); ok {
			close(g.entered)
			<-g.release
			tasks[0].Finish(nil)
			return Outcome{}
		}
		if len(tasks) > 1 && fail.CompareAndSwap(true, false) {
			// Crash mid-batch: finish the first task only.
			tasks[0].Finish(nil)
			return Outcome{Unfinished: tasks[1:], Err: errors.New("boom")}
		}
		for _, tk := range tasks {
			tk.Finish(nil)
		}
		return Outcome{}
	}
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 32, BatchMax: 8}, exec)
	g := h.submitGate() // pin the worker so a real multi-task batch forms
	tasks := make([]*Task, 6)
	for i := range tasks {
		tasks[i] = &Task{Batchable: true, Payload: i}
	}
	for _, tk := range tasks {
		mustSubmit(t, h.s, tk)
	}
	close(g.release)
	waitDone(t, tasks...)
	for i, tk := range tasks {
		if err := tk.Err(); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	snap := h.s.Snapshot()
	if snap.Requeued == 0 {
		t.Fatalf("no tasks requeued: %+v", snap)
	}
	if snap.Completed != uint64(len(tasks))+1 { // +1 for the gate task
		t.Fatalf("completed %d, want %d", snap.Completed, len(tasks)+1)
	}
}

// TestSchedulerRetriesExhausted: a dispatch that always fails finishes its
// tasks with ErrRetriesExhausted after MaxAttempts.
func TestSchedulerRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	exec := func(w Worker, tasks []*Task) Outcome {
		calls.Add(1)
		return Outcome{Unfinished: tasks, Err: errors.New("always broken")}
	}
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8, MaxAttempts: 3}, exec)
	tk := &Task{Payload: "cursed"}
	mustSubmit(t, h.s, tk)
	waitDone(t, tk)
	if !errors.Is(tk.Err(), ErrRetriesExhausted) {
		t.Fatalf("Err = %v, want ErrRetriesExhausted", tk.Err())
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("executor called %d times, want 3", got)
	}
	if tk.Attempts() != 3 {
		t.Fatalf("Attempts = %d, want 3", tk.Attempts())
	}
	if snap := h.s.Snapshot(); snap.RetriesExhausted != 1 || snap.Failed != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestSchedulerQueueFull: Submit refuses with ErrQueueFull once QueueCap
// tasks are admitted (queued + executing).
func TestSchedulerQueueFull(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 3}, gateExec)
	g := h.submitGate() // occupies 1 admission slot while executing
	a, b := &Task{}, &Task{}
	mustSubmit(t, h.s, a)
	mustSubmit(t, h.s, b)
	if err := h.s.Submit(&Task{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: %v, want ErrQueueFull", err)
	}
	if snap := h.s.Snapshot(); snap.Rejected != 1 {
		t.Fatalf("Rejected = %d", snap.Rejected)
	}
	close(g.release)
	waitDone(t, a, b)
}

// TestSchedulerSubmitInvalidClass rejects out-of-range classes.
func TestSchedulerSubmitInvalidClass(t *testing.T) {
	h := newHarness(t, Config{}, nil)
	if err := h.s.Submit(&Task{Class: Class(9)}); err == nil {
		t.Fatalf("invalid class accepted")
	}
}

// TestSchedulerCloseDrains: Close finishes admitted work before stopping
// and closes every worker; Submit afterwards refuses.
func TestSchedulerCloseDrains(t *testing.T) {
	var execd atomic.Int64
	exec := func(w Worker, tasks []*Task) Outcome {
		for _, tk := range tasks {
			time.Sleep(100 * time.Microsecond)
			execd.Add(1)
			tk.Finish(nil)
		}
		return Outcome{}
	}
	cfg := Config{MinWorkers: 2, MaxWorkers: 2, QueueCap: 32}
	h := newHarness(t, cfg, exec)
	tasks := make([]*Task, 16)
	for i := range tasks {
		tasks[i] = &Task{Batchable: true}
		mustSubmit(t, h.s, tasks[i])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := execd.Load(); got != 16 {
		t.Fatalf("executed %d tasks, want all 16 drained", got)
	}
	if err := h.s.Submit(&Task{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestSchedulerCloseInterrupted: an expired drain context flushes queued
// tasks with ErrClosed rather than hanging.
func TestSchedulerCloseInterrupted(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8}, gateExec)
	g := h.submitGate()
	stuck := &Task{Payload: "stuck"}
	mustSubmit(t, h.s, stuck)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.s.Close(ctx); err == nil {
		t.Fatalf("interrupted Close returned nil")
	}
	waitDone(t, stuck)
	if !errors.Is(stuck.Err(), ErrClosed) {
		t.Fatalf("flushed task err = %v, want ErrClosed", stuck.Err())
	}
	close(g.release) // unstick the worker so Cleanup can finish
}

// TestSchedulerSteadyStateAllocs pins the per-task allocation count of the
// submit→dispatch→finish cycle, on the worker's goroutine and on the
// caller's.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	for _, tc := range []struct {
		name      string
		batchable bool // idle pool: a batchable task is caller-run
	}{
		{"worker", false},
		{"caller", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8}, nil)
			// Warm up so pool slices reach steady capacity.
			for i := 0; i < 64; i++ {
				tk := &Task{Batchable: tc.batchable}
				mustSubmit(t, h.s, tk)
				waitDone(t, tk)
			}
			tk := &Task{}
			avg := testing.AllocsPerRun(200, func() {
				*tk = Task{Batchable: tc.batchable}
				mustSubmit(t, h.s, tk)
				<-tk.Done()
			})
			// Budget: the done channel, the harness's dispatch-record copy, the
			// caller's one-task batch, and a couple of runtime incidentals. The
			// hot path itself must not allocate per task beyond that.
			if avg > 8 {
				t.Fatalf("steady-state allocs per task = %.1f, want <= 8", avg)
			}
			snap := h.s.Snapshot()
			want := uint64(0)
			if tc.batchable {
				want = snap.Dispatches
			}
			if snap.InlineDispatches != want {
				t.Fatalf("%d of %d dispatches were caller-run, want %d", snap.InlineDispatches, snap.Dispatches, want)
			}
		})
	}
}
