package sched

// Snapshot is a point-in-time view of the scheduler for metrics export.
// Counters are cumulative since New; gauges are instantaneous.
type Snapshot struct {
	// Gauges.
	Workers  int   `json:"workers"`
	Queued   int   `json:"queued"`
	InFlight int64 `json:"in_flight"`

	// Admission counters.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// QueueWait is the admission-to-dispatch wait distribution — queueing
	// delay, separate from service time, so a loaded server's latency
	// decomposes in /metrics.
	QueueWait WaitStats `json:"queue_wait"`

	// Dispatches.
	Dispatches uint64 `json:"dispatches"`
	// DispatchedTasks equals Dispatches, since every dispatch carries one
	// task; it is filled from the dispatch count and stays because
	// benchmark/probe_server.go reads it.
	DispatchedTasks uint64 `json:"dispatched_tasks"`
	// InlineDispatches is the part of Dispatches that Submit's caller ran
	// itself (a batchable task, idle pool): work that never woke a worker.
	InlineDispatches uint64 `json:"inline_dispatches"`

	// ExpiredBeforeRun counts tasks dropped at the head of the queue
	// because their Cancel fired while they waited.
	ExpiredBeforeRun uint64 `json:"expired_before_run"`
}

// WaitStats summarizes the queue-wait distribution.
type WaitStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Snapshot captures the scheduler's current state.
func (s *Scheduler) Snapshot() Snapshot {
	dispatches := uint64(s.dispatches.Load())
	return Snapshot{
		Workers:   s.cfg.MinWorkers,
		Queued:    s.Queued(),
		InFlight:  s.inflight.Load(),
		Submitted: uint64(s.submitted.Load()),
		Rejected:  uint64(s.rejected.Load()),
		Completed: uint64(s.completed.Load()),
		Failed:    uint64(s.failed.Load()),
		Cancelled: uint64(s.cancelled.Load()),
		QueueWait: WaitStats{
			Count:  s.qwait.Count(),
			MeanMs: s.qwait.Mean() * 1e3,
			P50Ms:  s.qwait.Quantile(0.5) * 1e3,
			P99Ms:  s.qwait.Quantile(0.99) * 1e3,
		},
		Dispatches:       dispatches,
		DispatchedTasks:  dispatches,
		InlineDispatches: uint64(s.inline.Load()),
		ExpiredBeforeRun: uint64(s.expired.Load()),
	}
}
