package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestKindNamesAndGlyphs(t *testing.T) {
	want := map[Kind]struct {
		name  string
		glyph byte
	}{
		KindGemm: {"gemm", 'g'}, KindWait: {"wait", 'w'}, KindCopy: {"copy", 'c'},
		KindPack: {"pack", 'p'}, KindBarrier: {"barrier", 'b'}, KindSteal: {"steal", 's'},
		KindGet: {"get", 't'}, KindPut: {"put", 'u'}, KindIssue: {"issue", 'i'},
		KindJob: {"job", 'j'}, KindRequest: {"request", 'r'}, KindQueue: {"queue", 'q'},
		KindBatch: {"batch", 'a'}, KindRecover: {"recover", 'v'}, KindStage: {"stage", 'o'},
	}
	for k, w := range want {
		if k.String() != w.name || k.Glyph() != w.glyph {
			t.Errorf("kind %d: got (%q,%q), want (%q,%q)", k, k.String(), k.Glyph(), w.name, w.glyph)
		}
	}
	if Kind(200).String() != "unknown" || Kind(200).Glyph() != '?' {
		t.Errorf("out-of-range kind should be unknown/?")
	}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(2, 0)
	r.Record(0, KindGemm, 1, 2)
	r.Record(0, KindWait, 0.5, 0.8)
	r.Record(1, KindGemm, 3, 4)
	r.Record(0, KindGemm, 2, 2)  // degenerate: dropped silently
	r.Record(5, KindGemm, 0, 1)  // misplaced lane
	r.Record(-1, KindGemm, 0, 1) // misplaced lane
	ev := r.ByLane(0)
	if len(ev) != 2 || ev[0].Kind != KindWait || ev[1].Kind != KindGemm {
		t.Fatalf("lane 0 events wrong: %+v", ev)
	}
	if all := r.Events(); len(all) != 3 {
		t.Fatalf("Events() = %d events, want 3", len(all))
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2 (misplaced)", r.Dropped())
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatalf("Reset left events behind")
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(1, 3)
	for i := 0; i < 5; i++ {
		s := float64(i)
		r.Record(0, KindGemm, s, s+0.5)
	}
	ev := r.ByLane(0)
	if len(ev) != 3 {
		t.Fatalf("ring lane holds %d events, want 3", len(ev))
	}
	// Oldest survivors are events 2,3,4.
	if ev[0].Start != 2 || ev[2].Start != 4 {
		t.Fatalf("ring kept wrong events: %+v", ev)
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2 overwrites", r.Dropped())
	}
}

func TestRecorderWallEpoch(t *testing.T) {
	r := NewRecorder(1, 0)
	t0 := r.Epoch().Add(10 * time.Millisecond)
	t1 := r.Epoch().Add(30 * time.Millisecond)
	r.RecordWall(0, KindJob, t0, t1)
	ev := r.ByLane(0)
	if len(ev) != 1 {
		t.Fatalf("want 1 event, got %d", len(ev))
	}
	if math.Abs(ev[0].Start-0.010) > 1e-9 || math.Abs(ev[0].End-0.030) > 1e-9 {
		t.Fatalf("wall conversion wrong: %+v", ev[0])
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, KindGemm, 0, 1)
	r.RecordWall(0, KindGemm, time.Now(), time.Now().Add(time.Second))
	if r.Events() != nil || r.Dropped() != 0 || r.Now() != 0 {
		t.Fatalf("nil recorder misbehaved")
	}
	r.Reset()
}

// The disabled tracing path must cost zero allocations: engines call Record
// unconditionally on their hot paths with a nil recorder.
func TestRecordDisabledZeroAlloc(t *testing.T) {
	var r *Recorder
	n := testing.AllocsPerRun(1000, func() {
		r.Record(0, KindGemm, 1, 2)
	})
	if n != 0 {
		t.Fatalf("nil-recorder Record allocates %v/op, want 0", n)
	}
}

// An enabled ring lane must also be allocation-free per event: the ring is
// preallocated, so always-on serving traces cannot pressure the GC.
func TestRecordRingZeroAlloc(t *testing.T) {
	r := NewRecorder(1, 64)
	s := 0.0
	n := testing.AllocsPerRun(1000, func() {
		r.Record(0, KindGemm, s, s+1)
		s += 2
	})
	if n != 0 {
		t.Fatalf("ring Record allocates %v/op, want 0", n)
	}
}

func TestCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x.count")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	if reg.Counter("x.count") != c {
		t.Fatalf("registry returned a different pointer for the same name")
	}
	g := reg.Gauge("x.depth")
	g.Add(3)
	g.Add(-1)
	if g.Load() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Load())
	}
	f := reg.Float("x.seconds")
	f.Add(0.5)
	f.Add(0.25)
	if f.Load() != 0.75 {
		t.Fatalf("float counter = %v, want 0.75", f.Load())
	}
	snap := reg.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	joined := strings.Join(names, ",")
	if joined != "x.count,x.depth,x.seconds" {
		t.Fatalf("snapshot names = %s", joined)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram should read zero")
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	h.Observe(0.5)
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.5); p50 < 0.001 || p50 > 0.00125 {
		t.Fatalf("p50 = %v, want ~1ms bucket upper bound", p50)
	}
	if h.Max() != 0.5 {
		t.Fatalf("max = %v", h.Max())
	}
	if q := h.Quantile(1.0); q != 0.5 {
		t.Fatalf("p100 = %v, want clamped to max 0.5", q)
	}
	if m := h.Mean(); math.Abs(m-(100*0.001+0.5)/101) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	// Sub-base and beyond-top observations land in the edge buckets; no
	// quantile reads above the largest observation, so an all-zero
	// histogram reads zero.
	var zero Histogram
	for i := 0; i < 1000; i++ {
		zero.Observe(0)
	}
	if p50, p99 := zero.Quantile(0.5), zero.Quantile(0.99); p50 != 0 || p99 != 0 {
		t.Fatalf("all-zero quantiles p50 %v p99 %v, want 0", p50, p99)
	}
	var edge Histogram
	edge.Observe(1e-9)
	if q := edge.Quantile(0.5); q != 1e-9 {
		t.Fatalf("sub-base quantile = %v, want the observation 1e-9", q)
	}
	edge.Observe(1e9)
	if edge.Count() != 2 {
		t.Fatalf("edge count = %d", edge.Count())
	}
}

func TestRegistryHistogramSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat").Observe(0.002)
	snap := reg.Snapshot()
	want := []string{"lat.count", "lat.max_s", "lat.mean_s", "lat.p50_s", "lat.p99_s"}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d samples, want %d", len(snap), len(want))
	}
	for i, s := range snap {
		if s.Name != want[i] {
			t.Fatalf("sample %d = %q, want %q", i, s.Name, want[i])
		}
	}
}

func TestRateWindow(t *testing.T) {
	var rw RateWindow
	now := time.Unix(1000, 0)
	for i := 0; i < 16; i++ {
		rw.Record(now)
	}
	if rps := rw.RPS(now); rps != 2 {
		t.Fatalf("rps = %v, want 2", rps)
	}
	// Far in the future the window has drained.
	if rps := rw.RPS(now.Add(time.Hour)); rps != 0 {
		t.Fatalf("stale rps = %v, want 0", rps)
	}
}

func TestMetersAdd(t *testing.T) {
	a := Meters{GetsShared: 2, WaitTime: 0.5, Flops: 100}
	b := Meters{GetsShared: 3, WaitTime: 0.25, ABFTDetected: 1}
	a.Add(&b)
	if a.GetsShared != 5 || a.WaitTime != 0.75 || a.Flops != 100 || a.ABFTDetected != 1 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestSummaryAndTimeline(t *testing.T) {
	events := []Event{
		{Rank: 0, Kind: KindGemm, Start: 0, End: 0.5},
		{Rank: 0, Kind: KindWait, Start: 0.5, End: 0.75},
		{Rank: 1, Kind: KindGemm, Start: 0, End: 1},
	}
	sum := Summary(events)
	if sum["gemm"] != 1.5 || sum["wait"] != 0.25 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	tl := Timeline(events, 2, 4, 1.0)
	wantTl := "rank   0 |ggww|\nrank   1 |gggg|\n"
	if tl != wantTl {
		t.Fatalf("timeline:\n%s\nwant:\n%s", tl, wantTl)
	}
	if Timeline(events, 2, 0, 1.0) != "" || Timeline(events, 2, 4, 0) != "" {
		t.Fatalf("degenerate timeline should be empty")
	}
}

func TestOverlapRatio(t *testing.T) {
	// Rank 0: gemm [0,1], wait [1,1.5], gemm [1.5,2.5]. Window [0,2.5]:
	// compute=2, wait=0.5 -> ratio 0.8.
	events := []Event{
		{Rank: 0, Kind: KindGemm, Start: 0, End: 1},
		{Rank: 0, Kind: KindWait, Start: 1, End: 1.5},
		{Rank: 0, Kind: KindGemm, Start: 1.5, End: 2.5},
		// Startup wait entirely before the first gemm: excluded.
		{Rank: 0, Kind: KindWait, Start: -1, End: -0.2},
		// A lane with no gemm contributes nothing.
		{Rank: 1, Kind: KindWait, Start: 0, End: 10},
	}
	wait, compute, ratio := OverlapRatio(events)
	if wait != 0.5 || compute != 2 {
		t.Fatalf("wait=%v compute=%v", wait, compute)
	}
	if math.Abs(ratio-0.8) > 1e-12 {
		t.Fatalf("ratio = %v, want 0.8", ratio)
	}
	if w, c, r := OverlapRatio(nil); w != 0 || c != 0 || r != 0 {
		t.Fatalf("empty overlap should be zero")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Rank: 1, Kind: KindWait, Start: 0.001, End: 0.002},
		{Rank: 0, Kind: KindGemm, Start: 0, End: 0.0005},
		{Rank: 0, Kind: KindGemm, Start: 0.001, End: 0.001}, // zero-length -> dur clamped to 1us
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 2, "test run"); err != nil {
		t.Fatal(err)
	}
	slices, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if slices != 3 {
		t.Fatalf("validated %d slices, want 3", slices)
	}
	if !strings.Contains(buf.String(), `"rank 1"`) || !strings.Contains(buf.String(), `"test run"`) {
		t.Fatalf("meta rows missing: %s", buf.String())
	}

	var named bytes.Buffer
	if err := WriteChromeTraceNamed(&named, events, []string{"rank 0", "server"}, "svc"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(named.String(), `"server"`) {
		t.Fatalf("named lane missing: %s", named.String())
	}

	if _, err := ValidateChromeTrace([]byte(`{"not":"an array"}`)); err == nil {
		t.Fatalf("non-array should fail validation")
	}
	if _, err := ValidateChromeTrace([]byte(`[{"ph":"X","ts":1,"dur":1,"tid":0}]`)); err == nil {
		t.Fatalf("nameless entry should fail validation")
	}
	if _, err := ValidateChromeTrace([]byte(`[{"name":"x","ph":"X","ts":-5,"dur":1,"tid":0}]`)); err == nil {
		t.Fatalf("negative ts should fail validation")
	}
}
