package main

import (
	"context"
	"time"

	"srumma/internal/sched"
)

// Layer probe: internal/sched. Pins sched.New/Config/Task/Outcome,
// Scheduler.Submit/Close, Task.Done/Finish.

type noopWorker struct{}

func (noopWorker) Close() error { return nil }

// probeSched pushes tasks through a scheduler whose executor does nothing, one
// at a time as a closed-loop caller would: admission, queueing, dispatch and
// completion, with no engine underneath. Runs in serve-small's traced run, the
// workload whose requests are mostly this.
func probeSched(_ int, d metrics) error {
	s, err := sched.New(sched.Config{
		MinWorkers: 1,
		QueueCap:   64,
		NewWorker:  func() (sched.Worker, error) { return noopWorker{}, nil },
		Exec: func(_ sched.Worker, tasks []*sched.Task) sched.Outcome {
			for _, t := range tasks {
				t.Finish(nil)
			}
			return sched.Outcome{}
		},
	})
	if err != nil {
		return err
	}
	const tasks = 10000
	t0 := time.Now()
	for range tasks {
		t := &sched.Task{Batchable: true}
		if err := s.Submit(t); err != nil {
			return err
		}
		<-t.Done()
	}
	perTask := time.Since(t0).Seconds() / tasks
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		return err
	}
	d.set("sched.noop_task_us", "us", perTask*1e6)
	return nil
}
