package sched

// Who runs a dispatch: the goroutine that submitted a batchable task when
// the pool has nothing better to offer it, a worker otherwise.

import (
	"context"
	"errors"
	"runtime"
	"strings"
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

// waitWorkersParked returns once every pool worker waits for a wakeup
// with nothing to dispatch — read off the goroutine stacks, since an empty
// pop leaves no other trace.
func (h *harness) waitWorkersParked() {
	h.t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "sched.(*Scheduler).runWorker(") {
				parked++
			}
		}
		if parked >= h.s.cfg.MinWorkers {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%d of %d workers parked after 5s", parked, h.s.cfg.MinWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWhoRunsADispatch walks the rule clause by clause: a batchable task is
// caller-run only when nothing is queued, a worker is idle and fewer than
// GOMAXPROCS caller-run dispatches are in flight.
func TestWhoRunsADispatch(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
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
			cfg:        Config{MinWorkers: 1, QueueCap: 8},
			arrange:    func(*harness) func() { return func() {} },
			batchable:  true,
			wantCaller: true,
		},
		{
			name:    "non-batchable task on an idle pool",
			cfg:     Config{MinWorkers: 1, QueueCap: 8},
			arrange: func(*harness) func() { return func() {} },
		},
		{
			name: "worker pinned",
			cfg:  Config{MinWorkers: 1, QueueCap: 8},
			arrange: func(h *harness) func() {
				g := h.submitGate()
				return func() { close(g.release) }
			},
			batchable: true,
			ahead:     1,
		},
		{
			name:      "GOMAXPROCS caller-run dispatches in flight",
			cfg:       Config{MinWorkers: 1, QueueCap: procs + 8},
			arrange:   func(h *harness) func() { return h.parkCallers(procs) },
			batchable: true,
			ahead:     procs,
		},
		{
			// A task queued without a wakeup: the worker is idle, but a task
			// waits — the probe queues behind it, and the wakeup its own
			// Submit sends dispatches both, the probe second.
			name: "something already queued",
			cfg:  Config{MinWorkers: 1, QueueCap: 8},
			arrange: func(h *harness) func() {
				h.s.mu.Lock()
				h.s.inflight.Add(1)
				h.s.q.push(&Task{Batchable: true, s: h.s, done: make(chan struct{}), enq: time.Now()})
				h.s.mu.Unlock()
				return func() {}
			},
			batchable: true,
			ahead:     1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Arrange once the worker has made its first, empty pop: from then
			// on it dispatches only when a Submit wakes it.
			h := newHarness(t, tc.cfg, gateExec)
			h.waitWorkersParked()
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
		})
	}
}

// TestCallerRunFailureFinishesTheTask: a caller-run dispatch that panics or
// returns without finishing its task finishes it with an error before
// Submit returns — no worker ever sees it.
func TestCallerRunFailureFinishesTheTask(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(tasks []*Task) Outcome
		want string
	}{
		{"panic", func([]*Task) Outcome { panic("boom") }, "sched: caller-run dispatch panicked: boom"},
		{"unfinished", func([]*Task) Outcome { return Outcome{} }, errNotFinished.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, Config{MinWorkers: 1, QueueCap: 8}, func(w Worker, tasks []*Task) Outcome {
				if w == nil && tasks[0].Payload == nil {
					return tc.fail(tasks)
				}
				for _, tk := range tasks {
					tk.Finish(nil)
				}
				return Outcome{}
			})
			tk := &Task{Batchable: true}
			mustSubmit(t, h.s, tk)
			select {
			case <-tk.Done():
			default:
				t.Fatal("Submit returned with its failed caller-run task unfinished")
			}
			if err := tk.Err(); err == nil || err.Error() != tc.want {
				t.Fatalf("task err %v, want %q", err, tc.want)
			}
			h.mu.Lock()
			byCaller := append([]bool(nil), h.byCaller...)
			h.mu.Unlock()
			if len(byCaller) != 1 || !byCaller[0] {
				t.Fatalf("dispatches by caller = %v, want [true]", byCaller)
			}
			snap := h.s.Snapshot()
			if snap.InlineDispatches != 1 || snap.Dispatches != 1 || snap.Failed != 1 || snap.InFlight != 0 {
				t.Fatalf("snapshot: %+v", snap)
			}
			// The slot the failed dispatch held is free again.
			again := &Task{Batchable: true, Payload: "again"}
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
	h := newHarness(t, Config{MinWorkers: 1, QueueCap: 1}, gateExec)
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
	h := newHarness(t, Config{MinWorkers: 1, QueueCap: 8}, gateExec)
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
