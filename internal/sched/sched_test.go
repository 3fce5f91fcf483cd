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

// TestSchedulerDropsCancelledAtHead: a task whose Cancel fires while queued
// is finished with ErrCancelled without reaching the executor.
func TestSchedulerDropsCancelledAtHead(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, QueueCap: 16}, gateExec)
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

// TestSchedulerQueueFull: Submit refuses with ErrQueueFull once QueueCap
// tasks are admitted (queued + executing).
func TestSchedulerQueueFull(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, QueueCap: 3}, gateExec)
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
	cfg := Config{MinWorkers: 2, QueueCap: 32}
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
	h := newHarness(t, Config{MinWorkers: 1, QueueCap: 8}, gateExec)
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
			h := newHarness(t, Config{MinWorkers: 1, QueueCap: 8}, nil)
			// Warm up so pool slices reach steady capacity.
			for i := 0; i < 64; i++ {
				tk := &Task{Batchable: tc.batchable}
				mustSubmit(t, h.s, tk)
				waitDone(t, tk)
			}
			// A Task is single-use (the worker reads it until Exec returns), so
			// every run gets its own, allocated up front.
			const runs = 200
			tasks := make([]Task, runs+1) // AllocsPerRun adds a warm-up run
			next := 0
			avg := testing.AllocsPerRun(runs, func() {
				tk := &tasks[next]
				next++
				*tk = Task{Batchable: tc.batchable}
				mustSubmit(t, h.s, tk)
				<-tk.Done()
			})
			// Budget: the done channel, the harness's dispatch-record copy, the
			// caller's one-task slice, and a couple of runtime incidentals. The
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
