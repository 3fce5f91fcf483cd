package armci

import (
	"bytes"
	"testing"

	"srumma/internal/obs"
	"srumma/internal/rt"
)

// A traced one-shot run must produce gemm/wait/job spans on every rank's
// lane, and the export must be loadable Chrome trace JSON.
func TestRunTracedProducesSpans(t *testing.T) {
	const n = 4
	topo := rt.Topology{NProcs: n, ProcsPerNode: n}
	rec := obs.NewRecorder(n, 0)
	_, err := RunTraced(topo, rec, func(c rt.Ctx) {
		g := c.Malloc(64 * 64)
		dst := c.LocalBuf(64 * 64)
		h := c.NbGetSub(g, (c.Rank()+1)%n, 0, 64, 64, 64, dst, 0)
		cb := c.LocalBuf(64 * 64)
		m := rt.Mat{Buf: dst, LD: 64, Rows: 64, Cols: 64}
		c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 64, Rows: 64, Cols: 64})
		c.Wait(h)
		c.Barrier()
		c.Free(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		sum := obs.Summary(rec.ByLane(r))
		if sum["gemm"] <= 0 {
			t.Fatalf("rank %d: no gemm span: %v", r, sum)
		}
		if sum["get"] <= 0 {
			t.Fatalf("rank %d: no get span: %v", r, sum)
		}
		if sum["job"] <= 0 {
			t.Fatalf("rank %d: no job span: %v", r, sum)
		}
		if sum["barrier"] <= 0 {
			t.Fatalf("rank %d: no barrier span: %v", r, sum)
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events(), n, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("real-engine trace does not validate: %v", err)
	}
}

// Successive jobs on a persistent team share the recorder's epoch, so the
// second job's spans land after the first's on one timeline.
func TestTeamRecorderSharedTimeline(t *testing.T) {
	tm := newTestTeam(t, 2)
	rec := obs.NewRecorder(2, 0)
	tm.SetRecorder(rec)
	body := func(c rt.Ctx) { c.Barrier() }
	if _, err := tm.Run(body); err != nil {
		t.Fatal(err)
	}
	first := rec.ByLane(0)
	if len(first) == 0 {
		t.Fatal("no spans from first job")
	}
	if _, err := tm.Run(body); err != nil {
		t.Fatal(err)
	}
	second := rec.ByLane(0)
	if len(second) <= len(first) {
		t.Fatal("second job added no spans")
	}
	firstEnd := first[len(first)-1].End
	if second[len(second)-1].Start < firstEnd {
		t.Fatalf("second job's spans not after the first's on the shared timeline")
	}
	// Detach: further jobs must not record.
	tm.SetRecorder(nil)
	if _, err := tm.Run(body); err != nil {
		t.Fatal(err)
	}
	if len(rec.ByLane(0)) != len(second) {
		t.Fatal("detached team still recorded")
	}
}

// With tracing off (the default), the span helpers on the one-sided hot
// path must not allocate: a serving deployment that never turns tracing on
// pays nothing for its existence.
func TestUntracedOneSidedOpsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	tm := newTestTeam(t, 1)
	var getAllocs, putAllocs float64
	if _, err := tm.Run(func(c rt.Ctx) {
		g := c.Malloc(64 * 64)
		dst := c.LocalBuf(64 * 64)
		getAllocs = testing.AllocsPerRun(100, func() {
			h := c.NbGetSub(g, 0, 0, 64, 64, 64, dst, 0)
			c.Wait(h)
		})
		putAllocs = testing.AllocsPerRun(100, func() {
			rt.Put(c, dst, 0, 64*64, g, 0, 0)
		})
		c.Free(g)
	}); err != nil {
		t.Fatal(err)
	}
	if getAllocs != 0 {
		t.Fatalf("untraced NbGetSub+Wait allocates %.1f/op, want 0", getAllocs)
	}
	if putAllocs != 0 {
		t.Fatalf("untraced Put allocates %.1f/op, want 0", putAllocs)
	}
}
