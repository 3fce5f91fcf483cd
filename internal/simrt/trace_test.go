package simrt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"srumma/internal/obs"
	"srumma/internal/rt"
)

func TestTracerCollectsEvents(t *testing.T) {
	prof := testProfile()
	rec := obs.NewRecorder(4, 0)
	res, err := RunTraced(prof, 4, rec, func(c rt.Ctx) {
		g := c.Malloc(1 << 14)
		dst := c.LocalBuf(1 << 14)
		h := rt.NbGet(c, g, (c.Rank()+2)%4, 0, 1<<14, dst, 0)
		b := c.LocalBuf(64 * 64)
		cb := c.LocalBuf(64 * 64)
		m := rt.Mat{Buf: b, LD: 64, Rows: 64, Cols: 64}
		c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 64, Rows: 64, Cols: 64})
		c.Wait(h)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no events collected")
	}
	sum := obs.Summary(rec.Events())
	if sum["gemm"] <= 0 || sum["barrier"] <= 0 {
		t.Fatalf("summary missing kinds: %v", sum)
	}
	// Events are consistent: within [0, Time], End >= Start, ranks valid.
	for _, e := range rec.Events() {
		if e.Start < 0 || e.End > res.Time+1e-12 || e.End < e.Start {
			t.Fatalf("bad event %+v (run time %g)", e, res.Time)
		}
		if e.Rank < 0 || e.Rank >= 4 {
			t.Fatalf("bad rank in %+v", e)
		}
	}
	// ByLane returns sorted, rank-filtered events.
	ev := rec.ByLane(1)
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].Start {
			t.Fatal("ByLane not sorted")
		}
		if ev[i].Rank != 1 {
			t.Fatal("ByLane leaked other ranks")
		}
	}
	// Per-rank gemm trace must match the stats' compute time.
	var gemm1 float64
	for _, e := range ev {
		if e.Kind == obs.KindGemm {
			gemm1 += e.Duration()
		}
	}
	if d := gemm1 - res.Stats[1].ComputeTime; d > 1e-9 || d < -1e-9 {
		t.Fatalf("traced gemm %g vs stats %g", gemm1, res.Stats[1].ComputeTime)
	}
}

func TestTracerTimelineRenders(t *testing.T) {
	prof := testProfile()
	rec := obs.NewRecorder(2, 0)
	res, err := RunTraced(prof, 2, rec, func(c rt.Ctx) {
		b := c.LocalBuf(64 * 64)
		cb := c.LocalBuf(64 * 64)
		m := rt.Mat{Buf: b, LD: 64, Rows: 64, Cols: 64}
		c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 64, Rows: 64, Cols: 64})
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.Timeline(rec.Events(), 2, 40, res.Time)
	if !strings.Contains(tl, "rank   0") || !strings.Contains(tl, "g") {
		t.Fatalf("timeline malformed:\n%s", tl)
	}
	if strings.Count(tl, "\n") != 2 {
		t.Fatalf("want 2 rows:\n%s", tl)
	}
	if obs.Timeline(rec.Events(), 2, 0, res.Time) != "" || obs.Timeline(rec.Events(), 2, 40, 0) != "" {
		t.Fatal("degenerate timelines should be empty")
	}
}

func TestRunWithoutTracerStillWorks(t *testing.T) {
	// Without a recorder every span is a no-op, not a nil dereference.
	_, err := Run(testProfile(), 2, func(c rt.Ctx) {
		b := c.LocalBuf(16)
		cb := c.LocalBuf(16)
		m := rt.Mat{Buf: b, LD: 4, Rows: 4, Cols: 4}
		c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 4, Rows: 4, Cols: 4})
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	prof := testProfile()
	rec := obs.NewRecorder(2, 0)
	_, err := RunTraced(prof, 2, rec, func(c rt.Ctx) {
		b := c.LocalBuf(32 * 32)
		cb := c.LocalBuf(32 * 32)
		m := rt.Mat{Buf: b, LD: 32, Rows: 32, Cols: 32}
		c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 32, Rows: 32, Cols: 32})
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events(), 2, "srumma virtual-time run"); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// Metadata rows (1 process + 2 threads) plus at least one slice per rank.
	if len(events) < 5 {
		t.Fatalf("only %d trace records", len(events))
	}
	sawGemm := false
	for _, e := range events {
		if e["ph"] == "X" {
			if e["name"] == "gemm" {
				sawGemm = true
			}
			if e["dur"].(float64) < 1 {
				t.Fatal("zero-duration slice emitted")
			}
		}
	}
	if !sawGemm {
		t.Fatal("no gemm slices in trace")
	}
}
