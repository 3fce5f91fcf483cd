package sched

import (
	"sync/atomic"
	"time"
)

// Task is one schedulable unit of work. The caller fills the public
// fields, Submit-s it, and waits on Done; the executor completes it with
// Finish. A Task is engine-agnostic: the scheduler never looks inside
// Payload, it only queues and dispatches. A Task is submitted once; a
// retry is a new Task.
type Task struct {
	// Batchable marks a task that needs no engine, so it may run on the
	// submitter's goroutine (package comment). The name dates from
	// coalescing; it stays because benchmark/probe_sched.go sets it.
	Batchable bool
	// Cancel, when non-nil and closed, aborts the task: the scheduler
	// drops it if still queued, and executors should skip it.
	Cancel <-chan struct{}
	// Payload is the executor's work description (opaque to the scheduler).
	Payload any

	s     *Scheduler
	enq   time.Time
	state atomic.Int32 // 0 pending, 1 finished
	err   error
	done  chan struct{}
}

// Done returns a channel closed when the task has finished (successfully,
// with an error, or dropped). Valid only after Submit accepted the task.
func (t *Task) Done() <-chan struct{} { return t.done }

// Err returns the task's outcome. It is nil until Done() is closed; read
// it only after waiting on Done.
func (t *Task) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

// Cancelled polls the Cancel channel without blocking.
func (t *Task) Cancelled() bool {
	if t.Cancel == nil {
		return false
	}
	select {
	case <-t.Cancel:
		return true
	default:
		return false
	}
}

// Finish settles the task exactly once (extra calls are no-ops), records
// it with the scheduler and releases everyone waiting on Done. Executors
// call it for every task they complete; the scheduler calls it for tasks
// dropped in the queue or left unfinished by their dispatch.
func (t *Task) Finish(err error) {
	if !t.state.CompareAndSwap(0, 1) {
		return
	}
	t.err = err
	if t.s != nil {
		t.s.taskFinished(t, err)
	}
	close(t.done)
}
