package sched

// Snapshot is a point-in-time view of the scheduler for metrics export.
// Counters are cumulative since New; gauges are instantaneous.
type Snapshot struct {
	// Gauges.
	Workers  int   `json:"workers"`
	Queued   int   `json:"queued"`
	InFlight int64 `json:"in_flight"`
	// QueuedByClass is the per-class run-queue depth, indexed by
	// Class.String().
	QueuedByClass map[string]int `json:"queued_by_class"`

	// Admission counters.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// ServedByClass counts finished tasks per class.
	ServedByClass map[string]uint64 `json:"served_by_class"`
	// QueueWait is the per-class admission-to-dispatch wait distribution,
	// indexed by Class.String() — queueing delay, separate from service
	// time, so a loaded server's latency decomposes in /metrics.
	QueueWait map[string]WaitStats `json:"queue_wait"`

	// Batching.
	Dispatches      uint64  `json:"dispatches"`
	DispatchedTasks uint64  `json:"dispatched_tasks"`
	BatchOccupancy  float64 `json:"batch_occupancy"` // mean tasks per dispatch
	MaxBatch        int64   `json:"max_batch"`
	// InlineDispatches is the part of Dispatches that Submit's caller ran
	// itself (one batchable task, idle pool): work that never woke a worker.
	InlineDispatches uint64 `json:"inline_dispatches"`

	// Deadlines and aging.
	DeadlineMisses       uint64 `json:"deadline_misses"`
	ExpiredBeforeRun     uint64 `json:"expired_before_run"`
	StarvationPromotions uint64 `json:"starvation_promotions"`
}

// WaitStats summarizes one class's queue-wait distribution.
type WaitStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Snapshot captures the scheduler's current state.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	queued := s.q.len()
	byClass := make(map[string]int, NumClasses)
	for c := 0; c < NumClasses; c++ {
		byClass[Class(c).String()] = len(s.q.heaps[c])
	}
	s.mu.Unlock()

	served := make(map[string]uint64, NumClasses)
	qwait := make(map[string]WaitStats, NumClasses)
	for c := 0; c < NumClasses; c++ {
		served[Class(c).String()] = uint64(s.served[c].Load())
		h := s.qwait[c]
		qwait[Class(c).String()] = WaitStats{
			Count:  h.Count(),
			MeanMs: h.Mean() * 1e3,
			P50Ms:  h.Quantile(0.5) * 1e3,
			P99Ms:  h.Quantile(0.99) * 1e3,
		}
	}
	snap := Snapshot{
		Workers:              s.cfg.MinWorkers,
		Queued:               queued,
		InFlight:             s.inflight.Load(),
		QueuedByClass:        byClass,
		Submitted:            uint64(s.submitted.Load()),
		Rejected:             uint64(s.rejected.Load()),
		Completed:            uint64(s.completed.Load()),
		Failed:               uint64(s.failed.Load()),
		Cancelled:            uint64(s.cancelled.Load()),
		ServedByClass:        served,
		QueueWait:            qwait,
		Dispatches:           uint64(s.dispatches.Load()),
		DispatchedTasks:      uint64(s.dispatchedTasks.Load()),
		MaxBatch:             s.maxBatch.Load(),
		InlineDispatches:     uint64(s.inline.Load()),
		DeadlineMisses:       uint64(s.misses.Load()),
		ExpiredBeforeRun:     uint64(s.expired.Load()),
		StarvationPromotions: uint64(s.starved.Load()),
	}
	if snap.Dispatches > 0 {
		snap.BatchOccupancy = float64(snap.DispatchedTasks) / float64(snap.Dispatches)
	}
	return snap
}
