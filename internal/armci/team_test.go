package armci

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/rt"
)

func newTestTeam(t *testing.T, nprocs int) *Team {
	t.Helper()
	tm, err := NewTeam(rt.Topology{NProcs: nprocs, ProcsPerNode: nprocs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close() })
	return tm
}

func TestTeamSequentialJobs(t *testing.T) {
	tm := newTestTeam(t, 4)
	for job := 0; job < 50; job++ {
		var sum int64
		stats, err := tm.Run(func(c rt.Ctx) {
			g := c.Malloc(4)
			c.WriteBuf(c.Local(g), 0, []float64{float64(c.Rank())})
			c.Barrier()
			if c.Rank() == 0 {
				total := 0.0
				for r := 0; r < c.Size(); r++ {
					buf := c.LocalBuf(1)
					rt.Get(c, g, r, 0, 1, buf, 0)
					total += c.ReadBuf(buf, 0, 1)[0]
					if rel, ok := rt.Ctx(c).(rt.BufferReleaser); ok {
						rel.ReleaseBuf(buf)
					}
				}
				atomic.StoreInt64(&sum, int64(total))
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got := atomic.LoadInt64(&sum); got != 0+1+2+3 {
			t.Fatalf("job %d: rank sum %d, want 6", job, got)
		}
		// Per-job stats must be fresh: exactly this job's traffic.
		if stats[0].GetsShared != 4 {
			t.Fatalf("job %d: rank 0 GetsShared = %d, want 4 (stats leaked across jobs?)", job, stats[0].GetsShared)
		}
	}
}

func TestTeamKernelThreadsStayWarm(t *testing.T) {
	tm := newTestTeam(t, 2)
	if _, err := tm.Run(func(c rt.Ctx) {
		c.(rt.KernelTuner).SetKernelThreads(3 + c.Rank())
	}); err != nil {
		t.Fatal(err)
	}
	// The next job on the same team sees the configuration it set.
	got := make([]int, 2)
	if _, err := tm.Run(func(c rt.Ctx) {
		got[c.Rank()] = c.(*ctx).kernelThreads
	}); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("kernelThreads after restart = %v, want [3 4]", got)
	}
}

func TestTeamPanicLeavesTeamReusable(t *testing.T) {
	tm := newTestTeam(t, 4)
	_, err := tm.Run(func(c rt.Ctx) {
		c.Barrier()
		if c.Rank() == 2 {
			panic("boom")
		}
		c.Barrier() // survivors unwind via the aborted barrier
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: boom") {
		t.Fatalf("want rank-2 panic error, got %v", err)
	}
	// The poisoned collectives died with the job; the team still works.
	var ok int32
	if _, err := tm.Run(func(c rt.Ctx) {
		c.Barrier()
		atomic.AddInt32(&ok, 1)
	}); err != nil {
		t.Fatalf("team unusable after panic job: %v", err)
	}
	if ok != 4 {
		t.Fatalf("%d ranks ran after panic job, want 4", ok)
	}
}

func TestTeamWatchdogLeakPoisonsTeam(t *testing.T) {
	tm := newTestTeam(t, 2)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unwedge the rank so the goroutine can exit
	_, err := tm.RunWithTimeout(50*time.Millisecond, func(c rt.Ctx) {
		if c.Rank() == 1 {
			<-release // wedged outside the runtime: unreclaimable
		}
	})
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("want WatchdogError, got %v", err)
	}
	if len(werr.Leaked) != 1 || werr.Leaked[0] != 1 {
		t.Fatalf("leaked ranks %v, want [1]", werr.Leaked)
	}
	// A team with leaked ranks must refuse further jobs...
	if _, err := tm.Run(func(rt.Ctx) {}); err == nil {
		t.Fatal("Run on a team with leaked ranks succeeded")
	}
	// ...and Close must re-report the leak (the drain watchdog).
	if cerr := tm.Close(); !errors.As(cerr, &werr) {
		t.Fatalf("Close after leak = %v, want WatchdogError", cerr)
	}
}

func TestTeamWatchdogRuntimeWedgeKeepsTeamUsable(t *testing.T) {
	tm := newTestTeam(t, 2)
	_, err := tm.RunWithTimeout(50*time.Millisecond, func(c rt.Ctx) {
		if c.Rank() == 1 {
			// Wedged INSIDE the runtime: a receive nobody sends. The abort
			// unblocks it, so the rank unwinds and nothing leaks.
			buf := c.LocalBuf(1)
			c.Recv(0, 99, buf, 0, 1)
		}
	})
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("want WatchdogError, got %v", err)
	}
	if len(werr.Leaked) != 0 {
		t.Fatalf("leaked ranks %v, want none (rank was runtime-blocked)", werr.Leaked)
	}
	// Every rank unwound, so the team keeps serving.
	if _, err := tm.Run(func(c rt.Ctx) { c.Barrier() }); err != nil {
		t.Fatalf("team unusable after runtime-wedged watchdog: %v", err)
	}
}

func TestTeamCloseIdempotentAndRunAfterClose(t *testing.T) {
	tm := newTestTeam(t, 2)
	if err := tm.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := tm.Run(func(rt.Ctx) {}); err == nil {
		t.Fatal("Run on closed team succeeded")
	}
}

func TestTeamScratchSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	tm := newTestTeam(t, 1)
	var avg float64
	if _, err := tm.Run(func(c rt.Ctx) {
		rel := c.(rt.BufferReleaser)
		rel.ReleaseBuf(c.LocalBuf(5000)) // warm the class pool
		avg = testing.AllocsPerRun(100, func() {
			rel.ReleaseBuf(c.LocalBuf(5000))
		})
	}); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("team LocalBuf/ReleaseBuf cycle allocates %.1f objects, want 0", avg)
	}
}

func TestOneShotRunnerMatchesTeam(t *testing.T) {
	topo := rt.Topology{NProcs: 3, ProcsPerNode: 3}
	run := func(r rt.Runner) []float64 {
		out := make([]float64, topo.NProcs)
		if _, err := r.Run(func(c rt.Ctx) {
			out[c.Rank()] = float64(c.Rank() * 10)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	oneShot := run(OneShot{Topo: topo})
	tm := newTestTeam(t, 3)
	team := run(tm)
	for i := range oneShot {
		if oneShot[i] != team[i] {
			t.Fatalf("rank %d: one-shot %v vs team %v", i, oneShot, team)
		}
	}
}
