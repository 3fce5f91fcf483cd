package core

// The workload scheduler is engine-agnostic: it orders, groups and
// dispatches opaque payloads. This test drives it straight from the core
// engine — no HTTP serving layer — mixing full SRUMMA team jobs
// (non-batchable singletons) with coalesced local-kernel batches and a
// small product its submitter computes, and verifies every result against
// the naive kernel.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
	"srumma/internal/sched"
)

type engineWorker struct{ tm *armci.Team }

func (w *engineWorker) Close() error { return w.tm.Close() }

// srummaDriveJob is one full engine multiply: distribute, run, gather.
type srummaDriveJob struct {
	d            Dims
	seedA, seedB uint64
	got          *mat.Matrix
}

// gemmDriveJob is one small product executed on the local kernel inside
// a coalesced batch.
type gemmDriveJob struct {
	a, b *mat.Matrix
	got  *mat.Matrix
}

func TestSchedulerDrivesEngine(t *testing.T) {
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 4, DomainSpansMachine: true}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}

	var callerRuns atomic.Int64
	exec := func(w sched.Worker, tasks []*sched.Task) sched.Outcome {
		if !tasks[0].Batchable {
			// An engine job always comes with an engine.
			tm := w.(*engineWorker).tm
			job := tasks[0].Payload.(*srummaDriveJob)
			da, db, dc := Dists(g, job.d, NN)
			a := mat.Random(da.Rows, da.Cols, job.seedA)
			b := mat.Random(db.Rows, db.Cols, job.seedB)
			co := driver.NewCollect(topo.NProcs)
			_, runErr := tm.Run(func(c rt.Ctx) {
				ga := driver.AllocBlock(c, da)
				gb := driver.AllocBlock(c, db)
				gc := driver.AllocBlock(c, dc)
				driver.LoadBlock(c, da, ga, a)
				driver.LoadBlock(c, db, gb, b)
				if err := Multiply(c, g, job.d, Options{}, ga, gb, gc); err != nil {
					panic(err)
				}
				co.Deposit(c, driver.StoreBlock(c, dc, gc))
			})
			if runErr == nil {
				job.got, runErr = dc.Gather(co.Blocks)
			}
			tasks[0].Finish(runErr)
			return sched.Outcome{Err: runErr}
		}
		// Small products need no engine, and may get none: a coalesced batch
		// arrives on a worker, a lone task on an idle pool on the goroutine
		// that submitted it (w nil). Whoever holds them computes them.
		if w == nil {
			callerRuns.Add(1)
			if len(tasks) != 1 {
				t.Errorf("caller-run dispatch of %d tasks, want 1", len(tasks))
			}
		}
		for _, tk := range tasks {
			job := tk.Payload.(*gemmDriveJob)
			got := mat.New(job.a.Rows, job.b.Cols)
			err := mat.GemmParallel(1, false, false, 1, job.a, job.b, 0, got)
			job.got = got
			tk.Finish(err)
		}
		return sched.Outcome{}
	}

	sch, err := sched.New(sched.Config{
		MinWorkers: 1,
		MaxWorkers: 2,
		QueueCap:   64,
		BatchMax:   8,
		NewWorker: func() (sched.Worker, error) {
			tm, err := armci.NewTeam(topo)
			if err != nil {
				return nil, err
			}
			return &engineWorker{tm: tm}, nil
		},
		Exec: exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sch.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// A mix of full engine multiplies and batchable small products.
	var tasks []*sched.Task
	var srumma []*srummaDriveJob
	for i := 0; i < 3; i++ {
		job := &srummaDriveJob{
			d:     Dims{M: 48, N: 48, K: 48},
			seedA: uint64(100 + 2*i),
			seedB: uint64(101 + 2*i),
		}
		srumma = append(srumma, job)
		tasks = append(tasks, &sched.Task{
			Class:    sched.ClassBatch,
			Cost:     2 * 48 * 48 * 48,
			Deadline: time.Now().Add(time.Minute),
			Payload:  job,
		})
	}
	var gemms []*gemmDriveJob
	for i := 0; i < 12; i++ {
		job := &gemmDriveJob{
			a: mat.Random(24, 24, uint64(200+2*i)),
			b: mat.Random(24, 24, uint64(201+2*i)),
		}
		gemms = append(gemms, job)
		tasks = append(tasks, &sched.Task{
			Class:     sched.ClassInteractive,
			Cost:      2 * 24 * 24 * 24,
			Batchable: true,
			LocKey:    24,
			Payload:   job,
		})
	}
	for _, tk := range tasks {
		if err := sch.Submit(tk); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range tasks {
		select {
		case <-tk.Done():
			if err := tk.Err(); err != nil {
				t.Fatalf("task failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("task did not finish")
		}
	}

	for i, job := range srumma {
		want := reference(t, job.d, NN, job.seedA, job.seedB)
		if diff := mat.MaxAbsDiff(job.got, want); diff > 1e-10*float64(job.d.K) {
			t.Errorf("srumma job %d: max diff %g", i, diff)
		}
	}
	for i, job := range gemms {
		want := mat.New(job.a.Rows, job.b.Cols)
		if err := mat.GemmNaive(false, false, 1, job.a, job.b, 0, want); err != nil {
			t.Fatal(err)
		}
		if diff := mat.MaxAbsDiff(job.got, want); diff > 1e-10*24 {
			t.Errorf("gemm job %d: max diff %g", i, diff)
		}
	}

	snap := sch.Snapshot()
	if snap.Completed != uint64(len(tasks)) {
		t.Errorf("completed %d, want %d", snap.Completed, len(tasks))
	}
	if snap.InlineDispatches != uint64(callerRuns.Load()) {
		t.Errorf("inline_dispatches %d, exec saw %d nil workers", snap.InlineDispatches, callerRuns.Load())
	}

	// The backlog is gone: a lone small product is now computed inside
	// Submit, by this goroutine. (A worker may still be settling its last
	// dispatch, in which case the product is queued for it; try again.)
	before := callerRuns.Load()
	for try := 0; callerRuns.Load() == before; try++ {
		if try == 100 {
			t.Fatal("no small product was caller-run on an idle pool in 100 tries")
		}
		job := &gemmDriveJob{a: mat.Random(24, 24, 900), b: mat.Random(24, 24, 901)}
		tk := &sched.Task{Batchable: true, Payload: job}
		if err := sch.Submit(tk); err != nil {
			t.Fatal(err)
		}
		<-tk.Done()
		want := mat.New(24, 24)
		if err := mat.GemmNaive(false, false, 1, job.a, job.b, 0, want); err != nil {
			t.Fatal(err)
		}
		if diff := mat.MaxAbsDiff(job.got, want); tk.Err() != nil || diff > 1e-10*24 {
			t.Fatalf("lone product: err %v, max diff %g", tk.Err(), diff)
		}
	}
	snap = sch.Snapshot()
	if snap.MaxBatch < 2 {
		t.Errorf("max batch %d: small products were never coalesced", snap.MaxBatch)
	}
	if snap.Failed != 0 || snap.Cancelled != 0 {
		t.Errorf("failed %d cancelled %d, want 0", snap.Failed, snap.Cancelled)
	}
}
