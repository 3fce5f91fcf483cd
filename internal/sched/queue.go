package sched

// The run queue: one FIFO of admitted tasks in arrival order. Every serving
// workload keeps it at most one deep (DESIGN.md "Workload scheduler"), so
// there is nothing for a priority order to reorder.

// runQueue is the scheduler's admitted-but-undispatched state: tasks[head:]
// in Submit order. All access is under the scheduler mutex. The slice is
// reused from its start whenever the queue empties and compacted before it
// would grow, so a steady state allocates nothing and the backing array
// stays within twice the deepest backlog.
type runQueue struct {
	tasks []*Task
	head  int
}

func (q *runQueue) len() int { return len(q.tasks) - q.head }

// push appends t at the tail.
func (q *runQueue) push(t *Task) {
	if q.head > 0 && len(q.tasks) == cap(q.tasks) {
		n := copy(q.tasks, q.tasks[q.head:])
		clear(q.tasks[n:])
		q.tasks, q.head = q.tasks[:n], 0
	}
	q.tasks = append(q.tasks, t)
}

// pop removes and returns the head; the queue must not be empty.
func (q *runQueue) pop() *Task {
	t := q.tasks[q.head]
	q.tasks[q.head] = nil
	q.head++
	if q.head == len(q.tasks) {
		q.tasks, q.head = q.tasks[:0], 0
	}
	return t
}
