package server

// Tests for the service-level tracing surface: request spans, engine spans
// from pooled teams, the shared sched lane, and the /debug/trace export.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"srumma/internal/obs"
	"srumma/internal/sched"
)

// TestDebugTraceDisabledByDefault: with TraceEvents unset the endpoint says
// so instead of returning an empty trace, and no recorder exists.
func TestDebugTraceDisabledByDefault(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	if s.rec != nil {
		t.Fatal("recorder allocated with TraceEvents=0")
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if er.Error == "" {
		t.Fatal("empty error message")
	}
}

// TestDebugTraceExportsSpans drives requests through both routes of a traced
// server and checks the exported Chrome trace: it validates,
// names every lane, and contains request, engine and scheduler spans.
func TestDebugTraceExportsSpans(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, TraceEvents: 256, SmallMNK: 1})
	// SmallMNK=1 forces the distributed route; then a batchable small one.
	big := randReq(24, 24, 24, 300)
	var resp MultiplyResponse
	if code, _ := post(t, s, big, &resp); code != http.StatusOK {
		t.Fatalf("srumma route status %d", code)
	}
	checkResult(t, resp, wantGemm(t, big), 1e-12)

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("trace status %d, want 200", w.Code)
	}
	slices, err := obs.ValidateChromeTrace(w.Body.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if slices == 0 {
		t.Fatal("trace has no slices")
	}

	events := s.rec.Events()
	kinds := map[obs.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindRequest, obs.KindGemm, obs.KindJob, obs.KindQueue, obs.KindBatch} {
		if kinds[k] == 0 {
			t.Errorf("no %s spans recorded", k)
		}
	}
	// Request spans live on the server lane, sched spans on the sched lane.
	for _, e := range events {
		switch e.Kind {
		case obs.KindRequest:
			if e.Rank != s.cfg.NProcs {
				t.Errorf("request span on lane %d, want %d", e.Rank, s.cfg.NProcs)
			}
		case obs.KindQueue, obs.KindBatch:
			if e.Rank != s.cfg.NProcs+1 {
				t.Errorf("%s span on lane %d, want %d", e.Kind, e.Rank, s.cfg.NProcs+1)
			}
		}
	}
}

// TestDebugTraceConcurrentJobs: two distributed jobs held until both teams
// have dispatched, then run at once with tracing on. Both products are
// right, every rank of each team recorded its job span onto the shared rank
// lanes, and the export still validates.
func TestDebugTraceConcurrentJobs(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2, TraceEvents: 256})
	entered := make(chan struct{}, 2)
	rel := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(rel) }) }
	defer release()
	s.setDispatchHook(func(*sched.Task) {
		entered <- struct{}{}
		<-rel
	})

	reqs := []MultiplyRequest{randReq(136, 140, 132, 11), randReq(144, 130, 138, 13)}
	var chans []<-chan struct {
		code int
		resp MultiplyResponse
	}
	for _, req := range reqs {
		chans = append(chans, postAsync(t, s, req))
	}
	for range reqs {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the two distributed jobs never held a team each at once")
		}
	}
	release()
	for i, ch := range chans {
		res := <-ch
		if res.code != http.StatusOK {
			t.Fatalf("job %d: status %d", i, res.code)
		}
		checkResult(t, res.resp, wantGemm(t, reqs[i]), 1e-9)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("trace status %d, want 200", w.Code)
	}
	if _, err := obs.ValidateChromeTrace(w.Body.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	jobs := 0
	for _, e := range s.rec.Events() {
		if e.Kind == obs.KindJob {
			jobs++
		}
	}
	if want := len(reqs) * s.cfg.NProcs; jobs != want {
		t.Fatalf("%d job spans, want %d (one per rank per job)", jobs, want)
	}
}

// TestSchedRegistryShared: the scheduler's sched.* instruments live in
// the server's registry — one namespace for the whole service.
func TestSchedRegistryShared(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 1})
	req := randReq(8, 8, 8, 400)
	var resp MultiplyResponse
	if code, _ := post(t, s, req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	got := map[string]float64{}
	for _, smp := range s.met.reg.Snapshot() {
		got[smp.Name] = smp.Value
	}
	if got["sched.completed"] < 1 {
		t.Fatalf("sched.completed = %v in shared registry, want >= 1", got["sched.completed"])
	}
	if got["server.admitted"] < 1 {
		t.Fatalf("server.admitted = %v, want >= 1", got["server.admitted"])
	}
}
