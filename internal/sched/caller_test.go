package sched

// Who runs a dispatch: the goroutine that submitted a batchable task when
// the pool has nothing better to offer it, a worker otherwise.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// parkCallers submits n batchable gate tasks from n goroutines and waits
// until every one is parked inside Exec. With an idle pool and n <=
// GOMAXPROCS each is a caller-run dispatch holding its Submit open.
func (h *harness) parkCallers(n int) (release func()) {
	h.t.Helper()
	gates := make([]*gate, n)
	returned := make(chan error, n)
	for i := range gates {
		gates[i] = newGate()
		tk := &Task{Batchable: true, Payload: gates[i]}
		go func() { returned <- h.s.Submit(tk) }()
		select {
		case <-gates[i].entered:
		case <-time.After(5 * time.Second):
			h.t.Fatalf("caller gate %d never entered", i)
		}
	}
	return func() {
		h.t.Helper()
		for _, g := range gates {
			close(g.release)
		}
		for range gates {
			if err := <-returned; err != nil {
				h.t.Errorf("parked Submit: %v", err)
			}
		}
	}
}

// TestWhoRunsADispatch walks the rule clause by clause: a batchable task is
// caller-run only when nothing is queued, a worker is idle and fewer than
// GOMAXPROCS caller-run dispatches are in flight.
func TestWhoRunsADispatch(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	secondWorker := make(chan struct{}) // holds the pool's second worker in its factory
	for _, tc := range []struct {
		name string
		cfg  Config
		// arrange brings the scheduler into the state under test and returns
		// what undoes it.
		arrange    func(h *harness) (release func())
		batchable  bool
		wantCaller bool
		// ahead is how many dispatched tasks must precede the probe.
		ahead int
	}{
		{
			name:       "idle pool",
			cfg:        Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8},
			arrange:    func(*harness) func() { return func() {} },
			batchable:  true,
			wantCaller: true,
		},
		{
			name:    "non-batchable task on an idle pool",
			cfg:     Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8},
			arrange: func(*harness) func() { return func() {} },
		},
		{
			name: "worker pinned",
			cfg:  Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8},
			arrange: func(h *harness) func() {
				g := h.submitGate()
				return func() { close(g.release) }
			},
			batchable: true,
			ahead:     1,
		},
		{
			name:      "GOMAXPROCS caller-run dispatches in flight",
			cfg:       Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: procs + 8},
			arrange:   func(h *harness) func() { return h.parkCallers(procs) },
			batchable: true,
			ahead:     procs,
		},
		{
			// One worker pinned, a second still in its factory: the pool has a
			// worker outside Exec, but two tasks wait — the probe queues behind
			// them and is dispatched after them.
			name: "something already queued",
			cfg: Config{MinWorkers: 1, MaxWorkers: 2, GrowAt: 1, QueueCap: 8,
				NewWorker: func() (Worker, error) {
					<-secondWorker
					return &fakeWorker{}, nil
				}},
			arrange: func(h *harness) func() {
				g := h.submitGate()
				mustSubmit(h.t, h.s, &Task{Batchable: true})
				mustSubmit(h.t, h.s, &Task{Batchable: true})
				if h.s.Workers() != 2 || h.s.Queued() != 2 {
					h.t.Fatalf("arranged %d workers and %d queued, want 2 and 2", h.s.Workers(), h.s.Queued())
				}
				return func() { close(g.release); close(secondWorker) }
			},
			batchable: true,
			ahead:     3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.NewWorker != nil {
				// Only workers past the first wait for the test.
				first, factory := true, cfg.NewWorker
				cfg.NewWorker = func() (Worker, error) {
					if first {
						first = false
						return &fakeWorker{}, nil
					}
					return factory()
				}
			}
			h := newHarness(t, cfg, gateExec)
			release := tc.arrange(h)
			probe := Task{Batchable: tc.batchable}
			mustSubmit(t, h.s, &probe)
			if tc.wantCaller {
				select {
				case <-probe.Done():
				default:
					t.Fatal("Submit returned before its own dispatch finished the task")
				}
			}
			release()
			waitDone(t, &probe)
			if err := probe.Err(); err != nil {
				t.Fatalf("probe: %v", err)
			}

			h.mu.Lock()
			defer h.mu.Unlock()
			seen := 0
			for i, d := range h.dispatches {
				for _, tk := range d {
					if tk != &probe {
						seen++
						continue
					}
					if h.byCaller[i] != tc.wantCaller {
						t.Errorf("Exec saw a nil worker = %v, want %v", h.byCaller[i], tc.wantCaller)
					}
					if seen != tc.ahead {
						t.Errorf("%d tasks dispatched ahead of the probe, want %d", seen, tc.ahead)
					}
				}
			}
			callers := 0
			for _, c := range h.byCaller {
				if c {
					callers++
				}
			}
			if got := h.s.Snapshot().InlineDispatches; got != uint64(callers) {
				t.Errorf("inline_dispatches = %d, Exec saw %d nil workers", got, callers)
			}
			if probe.Attempts() != 1 {
				t.Errorf("probe attempts = %d, want 1", probe.Attempts())
			}
		})
	}
}

// TestCallerRunFailureGoesToAWorker: a caller-run dispatch that panics or
// hands its task back is settled like any other — the task is requeued and
// a worker finishes it; Submit returns without it having finished.
func TestCallerRunFailureGoesToAWorker(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(tasks []*Task) Outcome
	}{
		{"panic", func([]*Task) Outcome { panic("boom") }},
		{"unfinished", func(tasks []*Task) Outcome {
			return Outcome{Unfinished: tasks, Err: errors.New("boom")}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8}, func(w Worker, tasks []*Task) Outcome {
				if w == nil {
					return tc.fail(tasks)
				}
				for _, tk := range tasks {
					tk.Finish(nil)
				}
				return Outcome{}
			})
			tk := &Task{Batchable: true}
			mustSubmit(t, h.s, tk)
			waitDone(t, tk)
			if err := tk.Err(); err != nil {
				t.Fatalf("task: %v", err)
			}
			if tk.Attempts() != 2 {
				t.Fatalf("attempts = %d, want 2 (caller, then worker)", tk.Attempts())
			}
			h.mu.Lock()
			byCaller := append([]bool(nil), h.byCaller...)
			h.mu.Unlock()
			if len(byCaller) != 2 || !byCaller[0] || byCaller[1] {
				t.Fatalf("dispatches by caller = %v, want [true false]", byCaller)
			}
			snap := h.s.Snapshot()
			if snap.Requeued != 1 || snap.InlineDispatches != 1 || snap.Dispatches != 2 || snap.Completed != 1 {
				t.Fatalf("snapshot: %+v", snap)
			}
			// The slot the failed dispatch held is free again.
			again := &Task{Batchable: true}
			mustSubmit(t, h.s, again)
			if h.s.Snapshot().InlineDispatches != 2 {
				t.Fatal("the caller-run slot of a failed dispatch was not returned")
			}
			waitDone(t, again)
		})
	}
}

// TestCallerRunCountsAgainstQueueCap: a task being run by its submitter is
// admitted work like any other.
func TestCallerRunCountsAgainstQueueCap(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 1}, gateExec)
	release := h.parkCallers(1)
	if err := h.s.Submit(&Task{Batchable: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit with a caller-run task in flight: %v, want ErrQueueFull", err)
	}
	release()
	if snap := h.s.Snapshot(); snap.InlineDispatches != 1 || snap.Rejected != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestCloseWaitsForCallerRun: the drain covers dispatches no worker holds.
func TestCloseWaitsForCallerRun(t *testing.T) {
	h := newHarness(t, Config{MinWorkers: 1, MaxWorkers: 1, QueueCap: 8}, gateExec)
	release := h.parkCallers(1)
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- h.s.Close(ctx)
	}()
	// The drain has begun once Submit refuses.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if err := h.s.Submit(&Task{}); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never began draining")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a caller-run dispatch still in Exec", err)
	default:
	}
	release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if snap := h.s.Snapshot(); snap.InlineDispatches != 1 || snap.InFlight != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
}
