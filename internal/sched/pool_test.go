package sched

import (
	"errors"
	"testing"
)

// TestPoolFixedByDefault: the zero Config builds one worker.
func TestPoolFixedByDefault(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 64}, gateExec)
	tasks := make([]*Task, 16)
	for i := range tasks {
		tasks[i] = &Task{}
		mustSubmit(t, h.s, tasks[i])
	}
	waitDone(t, tasks...)
	if n := h.s.Snapshot().Workers; n != 1 {
		t.Fatalf("default pool at %d workers, want 1", n)
	}
	if made := h.workersMade(); made != 1 {
		t.Fatalf("workers created = %d, want 1", made)
	}
}

// TestPoolIsFixedAndNeverRetries: a deep backlog behind a pinned pool builds
// no worker beyond the MinWorkers New built, and a task its dispatch leaves
// unfinished is finished with an error — Exec never sees it again.
func TestPoolIsFixedAndNeverRetries(t *testing.T) {
	const dropped = "dropped"
	h := newHarness(t, Config{MinWorkers: 2, QueueCap: 64}, func(w Worker, tasks []*Task) Outcome {
		for _, tk := range tasks {
			if tk.Payload == dropped {
				continue
			}
			if g, ok := tk.Payload.(*gate); ok {
				close(g.entered)
				<-g.release
			}
			tk.Finish(nil)
		}
		return Outcome{}
	})
	g1, g2 := h.submitGate(), h.submitGate()
	tasks := make([]*Task, 48)
	for i := range tasks {
		tasks[i] = &Task{Batchable: true, Payload: i}
		if i == 17 {
			tasks[i].Payload = dropped
		}
		mustSubmit(t, h.s, tasks[i])
	}
	if q := h.s.Queued(); q != len(tasks) {
		t.Fatalf("%d queued behind the pinned pool, want %d", q, len(tasks))
	}
	close(g1.release)
	close(g2.release)
	waitDone(t, tasks...)

	if made := h.workersMade(); made != 2 {
		t.Fatalf("NewWorker called %d times across the backlog, want 2", made)
	}
	for i, tk := range tasks {
		if err := tk.Err(); (i == 17) != (err != nil) {
			t.Fatalf("task %d: err %v", i, err)
		}
	}
	if err := tasks[17].Err(); !errors.Is(err, errNotFinished) {
		t.Fatalf("unfinished task: err %v, want %v", err, errNotFinished)
	}
	seen := 0
	for _, tk := range h.dispatchOrder() {
		if tk == tasks[17] {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("Exec saw the unfinished task %d times, want 1", seen)
	}
	if snap := h.s.Snapshot(); snap.Failed != 1 || snap.Workers != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestPoolNewFailsCleanly: a factory error during New closes the workers
// already created and reports the error.
func TestPoolNewFailsCleanly(t *testing.T) {
	var made []*fakeWorker
	calls := 0
	cfg := Config{
		MinWorkers: 3,
		NewWorker: func() (Worker, error) {
			calls++
			if calls == 3 {
				return nil, errors.New("third worker broken")
			}
			w := &fakeWorker{id: calls}
			made = append(made, w)
			return w, nil
		},
		Exec: func(w Worker, tasks []*Task) Outcome { return Outcome{} },
	}
	if _, err := New(cfg); err == nil {
		t.Fatalf("New succeeded with a broken factory")
	}
	for i, w := range made {
		if !w.closed.Load() {
			t.Fatalf("worker %d not closed after failed New", i)
		}
	}
}
