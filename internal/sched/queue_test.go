package sched

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestQueueFIFOWithoutDeadlines: the run queue is one FIFO and every
// dispatch is one task. Queued tasks, batchable or not, dispatch alone in
// Submit order — batchable ones queued back to back too — and a retry,
// being a new Task, queues behind everything that arrived before it.
func TestQueueFIFOWithoutDeadlines(t *testing.T) {
	errFirst := errors.New("first attempt fails")
	var mu sync.Mutex
	attempted := map[any]bool{}
	exec := func(w Worker, tasks []*Task) Outcome {
		for _, tk := range tasks {
			if g, ok := tk.Payload.(*gate); ok {
				close(g.entered)
				<-g.release
			}
			mu.Lock()
			again := attempted[tk.Payload]
			attempted[tk.Payload] = true
			mu.Unlock()
			if tk.Payload == "a" && !again {
				tk.Finish(errFirst)
				continue
			}
			tk.Finish(nil)
		}
		return Outcome{}
	}
	h := newHarness(t, Config{MinWorkers: 1, QueueCap: 32}, exec)

	// Arrival order with batchable and non-batchable tasks interleaved.
	g := h.submitGate()
	batchable := []bool{true, false, true, true, false, true}
	var tasks []*Task
	for i, b := range batchable {
		tk := &Task{Batchable: b, Payload: i}
		tasks = append(tasks, tk)
		mustSubmit(t, h.s, tk)
	}
	close(g.release)
	waitDone(t, tasks...)
	h.mu.Lock()
	var groups [][]any
	for _, d := range h.dispatches[1:] {
		var ids []any
		for _, tk := range d {
			ids = append(ids, tk.Payload)
		}
		groups = append(groups, ids)
	}
	h.dispatches = nil
	h.mu.Unlock()
	want := [][]any{{0}, {1}, {2}, {3}, {4}, {5}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("dispatches %v, want %v", groups, want)
	}

	// A retry queues behind newer arrivals. The first attempt of "a" fails
	// while a second gate waits behind it; "b" and "c" arrive, then the
	// retry of "a".
	g1, g2 := newGate(), newGate()
	first := &Task{Payload: g1}
	mustSubmit(t, h.s, first)
	<-g1.entered
	a1 := &Task{Payload: "a"}
	second := &Task{Payload: g2}
	mustSubmit(t, h.s, a1)
	mustSubmit(t, h.s, second)
	close(g1.release)
	waitDone(t, a1)
	<-g2.entered
	if !errors.Is(a1.Err(), errFirst) {
		t.Fatalf("first attempt: %v, want %v", a1.Err(), errFirst)
	}
	b, c := &Task{Payload: "b"}, &Task{Batchable: true, Payload: "c"}
	a2 := &Task{Batchable: true, Payload: "a"}
	mustSubmit(t, h.s, b)
	mustSubmit(t, h.s, c)
	mustSubmit(t, h.s, a2)
	close(g2.release)
	waitDone(t, b, c, a2)
	var order []any
	for _, tk := range h.dispatchOrder() {
		order = append(order, tk.Payload)
	}
	if got, want := order[3:], []any{"b", "c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the failed attempt: %v, want %v", got, want)
	}
	if err := a2.Err(); err != nil {
		t.Fatalf("retry: %v", err)
	}
}

// TestRunQueueReusesItsSlice: the queue restarts at the front of its slice
// when it empties and compacts instead of growing while its head has
// advanced, so a backlog that comes and goes never grows it without bound.
func TestRunQueueReusesItsSlice(t *testing.T) {
	var q runQueue
	tasks := make([]*Task, 8)
	for i := range tasks {
		tasks[i] = &Task{Payload: i}
	}
	for round := 0; round < 100; round++ {
		for _, tk := range tasks[:4] {
			q.push(tk)
		}
		q.pop()
		for _, tk := range tasks[4:] {
			q.push(tk)
		}
		// Three of the first four and all of the last four remain, in order.
		for i, want := range []int{1, 2, 3, 4, 5, 6, 7} {
			if got := q.pop().Payload; got != want {
				t.Fatalf("round %d pop %d: got %v, want %d", round, i, got, want)
			}
		}
		if q.len() != 0 {
			t.Fatalf("round %d: %d left", round, q.len())
		}
	}
	if c := cap(q.tasks); c > 2*len(tasks) {
		t.Fatalf("queue slice grew to %d for a backlog of %d", c, len(tasks))
	}
	// A backlog that never empties compacts rather than growing.
	for i := 0; i < 1000; i++ {
		q.push(tasks[i%8])
		if q.len() > 4 {
			q.pop()
		}
	}
	if c := cap(q.tasks); c > 2*len(tasks) {
		t.Fatalf("queue slice grew to %d for a backlog of 5", c)
	}
}
