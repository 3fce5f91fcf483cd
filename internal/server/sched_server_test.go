package server

// Scheduler serving tests: backlog bit-identity, deadline handling,
// overflow, two jobs on two teams, drain, requests that still carry the
// retired scheduling inputs, and the chaos case where an executor crash
// in a backlog fails one task and its handler retries it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/ipcrt"
	"srumma/internal/job"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
	"srumma/internal/sched"
)

// blockOn installs a dispatch hook that parks any dispatch whose request ID
// matches id until the returned release func is called. It pins one
// scheduler worker — the only one on a Teams: 1 pool — so tests can build a
// backlog deterministically.
func blockOn(s *Server, id string) (release func(), entered <-chan struct{}) {
	rel := make(chan struct{})
	ent := make(chan struct{})
	var onceEnter sync.Once
	s.setDispatchHook(func(tk *sched.Task) {
		job := tk.Payload.(*schedJob)
		if job.req.ID == id {
			onceEnter.Do(func() { close(ent) })
			<-rel
		}
	})
	var onceRel sync.Once
	return func() { onceRel.Do(func() { close(rel) }) }, ent
}

// blockerReq is the request tests park in the dispatch hook to pin a pool
// worker: just too large for the small route, so the scheduler queues it for
// the worker's team. (A small one would be computed — and parked —
// by its own handler, leaving the worker free.)
func blockerReq() MultiplyRequest {
	r := randReq(129, 129, 129, 1)
	r.ID = "blocker"
	return r
}

// postAsync issues the request from a goroutine, delivering the outcome on
// the returned channel.
func postAsync(t *testing.T, s *Server, req MultiplyRequest) <-chan struct {
	code int
	resp MultiplyResponse
} {
	t.Helper()
	ch := make(chan struct {
		code int
		resp MultiplyResponse
	}, 1)
	go func() {
		var resp MultiplyResponse
		code, _ := post(t, s, req, &resp)
		ch <- struct {
			code int
			resp MultiplyResponse
		}{code, resp}
	}()
	return ch
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitQueued polls until the scheduler holds n queued tasks.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d queued tasks", n), func() bool { return s.sched.Queued() >= n })
}

// TestServerSchedBacklogBitIdentical pre-queues a pile of small GEMMs
// behind a pinned worker, releases it, and verifies each was served by a
// dispatch of its own with a result BIT-IDENTICAL to the serial kernel.
func TestServerSchedBacklogBitIdentical(t *testing.T) {
	const n = 24
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: n + 4})
	release, entered := blockOn(s, "blocker")

	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered
	before := s.Metrics().Sched.Dispatches

	reqs := make([]MultiplyRequest, n)
	chans := make([]<-chan struct {
		code int
		resp MultiplyResponse
	}, n)
	for i := range reqs {
		reqs[i] = randReq(16+i%5, 12+i%3, 16+i%7, uint64(1000+i))
		chans[i] = postAsync(t, s, reqs[i])
	}
	waitQueued(t, s, n)
	release()

	<-blockerCh
	for i, ch := range chans {
		res := <-ch
		if res.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, res.code)
		}
		if res.resp.Route != routeSmall {
			t.Fatalf("request %d routed %q, want small", i, res.resp.Route)
		}
		want := wantGemm(t, reqs[i])
		got := &mat.Matrix{Rows: res.resp.Rows, Cols: res.resp.Cols, Stride: res.resp.Cols, Data: res.resp.C}
		if diff := mat.MaxAbsDiff(got, want); diff != 0 {
			t.Fatalf("request %d: backlogged result differs from serial by %g, want bit-identical", i, diff)
		}
	}
	if d := s.Metrics().Sched.Dispatches - before; d != n {
		t.Fatalf("%d dispatches served %d queued requests, want one each", d, n)
	}
}

// TestServerSchedDeadlineWhileQueued: a queued request whose timeout fires
// before dispatch gets 504 and the server keeps serving.
func TestServerSchedDeadlineWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: 8})
	release, entered := blockOn(s, "blocker")
	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered

	req := randReq(16, 16, 16, 2)
	req.TimeoutMillis = 20
	code, w := post(t, s, req, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, w.Body.String())
	}
	if m := s.Metrics(); m.Cancelled != 1 {
		t.Fatalf("cancelled_total = %d, want 1", m.Cancelled)
	}
	release()
	if res := <-blockerCh; res.code != http.StatusOK {
		t.Fatalf("blocker status %d", res.code)
	}
	req.TimeoutMillis = 0
	var resp MultiplyResponse
	if code, _ := post(t, s, req, &resp); code != http.StatusOK {
		t.Fatalf("post-timeout status %d, want 200", code)
	}
	checkResult(t, resp, wantGemm(t, req), 1e-10)
}

// TestServerSchedOverflow429: a full run queue refuses with 429 and a
// Retry-After hint, and admitted requests still complete correctly.
func TestServerSchedOverflow429(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: 2})
	release, entered := blockOn(s, "blocker")
	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered

	req := randReq(16, 16, 16, 2)
	queuedCh := postAsync(t, s, req)
	waitQueued(t, s, 1)

	// QueueCap 2 = 1 executing + 1 queued: the next request bounces.
	code, w := post(t, s, req, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.RetryAfterSeconds < 1 || eresp.RetryAfterSeconds > 60 {
		t.Fatalf("retry_after_s = %d, want in [1, 60]", eresp.RetryAfterSeconds)
	}

	release()
	if res := <-blockerCh; res.code != http.StatusOK {
		t.Fatalf("blocker status %d", res.code)
	}
	res := <-queuedCh
	if res.code != http.StatusOK {
		t.Fatalf("queued request status %d", res.code)
	}
	checkResult(t, res.resp, wantGemm(t, req), 1e-10)
	m := s.Metrics()
	if m.Rejected != 1 {
		t.Fatalf("rejected_429_total = %d, want 1", m.Rejected)
	}
	if m.Completed != 2 {
		t.Fatalf("completed_total = %d, want 2", m.Completed)
	}
}

// TestServerSchedChaosCrashRetried: an executor panic in a backlog
// (injected via the dispatch hook, recovered by the executor) fails only
// the task it held — the other seven complete on their first dispatch —
// and its handler retries it as a restarted job: every request still
// completes correctly.
func TestServerSchedChaosCrashRetried(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: n + 4})

	rel := make(chan struct{})
	entered := make(chan struct{})
	var onceEnter sync.Once
	var crashed atomic.Pointer[string]
	s.setDispatchHook(func(tk *sched.Task) {
		job := tk.Payload.(*schedJob)
		if job.req.ID == "blocker" {
			onceEnter.Do(func() { close(entered) })
			<-rel
			return
		}
		if crashed.CompareAndSwap(nil, &job.req.ID) {
			panic("chaos: injected executor crash")
		}
	})

	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered
	before := s.Metrics().Sched.Dispatches

	reqs := make([]MultiplyRequest, n)
	chans := make([]<-chan struct {
		code int
		resp MultiplyResponse
	}, n)
	for i := range reqs {
		reqs[i] = randReq(16, 16, 16, uint64(2000+i))
		reqs[i].ID = fmt.Sprintf("r%d", i)
		chans[i] = postAsync(t, s, reqs[i])
	}
	waitQueued(t, s, n)
	close(rel)

	<-blockerCh
	for i, ch := range chans {
		res := <-ch
		if res.code != http.StatusOK {
			t.Fatalf("request %d: status %d after injected crash", i, res.code)
		}
		want := wantGemm(t, reqs[i])
		got := &mat.Matrix{Rows: res.resp.Rows, Cols: res.resp.Cols, Stride: res.resp.Cols, Data: res.resp.C}
		if diff := mat.MaxAbsDiff(got, want); diff != 0 {
			t.Fatalf("request %d: result differs by %g after the retry", i, diff)
		}
	}
	m := s.Metrics()
	if m.Recovery.Retries != 1 || m.Recovery.RestartedJobs != 1 {
		t.Fatalf("recovery %+v, want one restarted retry", m.Recovery)
	}
	if m.Completed != n+1 || m.Errors != 0 {
		t.Fatalf("completed_total = %d, error_total = %d; want %d and 0", m.Completed, m.Errors, n+1)
	}
	// One dispatch per request, plus the crashed one's retry: the other
	// seven completed on their first.
	if d := m.Sched.Dispatches - before; m.Sched.Failed != 1 || d != n+1 {
		t.Fatalf("sched failed %d, %d dispatches; want 1 and %d", m.Sched.Failed, d, n+1)
	}
}

// TestDefaultTeamsRunTwoJobsAtOnce: with the default pool, a distributed
// job admitted while another is held inside its dispatch starts on the
// second team and completes, correct, before the first is released. On a
// one-team pool it would queue behind the first, so the wait is bounded.
func TestDefaultTeamsRunTwoJobsAtOnce(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2})
	release, entered := blockOn(s, "blocker")
	defer release()
	blockerCh := postAsync(t, s, blockerReq())
	<-entered

	req := randReq(130, 129, 131, 7)
	select {
	case res := <-postAsync(t, s, req):
		if res.code != http.StatusOK {
			t.Fatalf("second job: status %d", res.code)
		}
		if res.resp.Route != routeSRUMMA {
			t.Fatalf("second job routed %q, want %q", res.resp.Route, routeSRUMMA)
		}
		checkResult(t, res.resp, wantGemm(t, req), 1e-9)
	case <-time.After(10 * time.Second):
		t.Fatal("second distributed job did not complete while the first held its team")
	}
	select {
	case <-blockerCh:
		t.Fatal("the held job finished before it was released")
	default:
	}
	release()
	res := <-blockerCh
	if res.code != http.StatusOK {
		t.Fatalf("held job: status %d", res.code)
	}
	checkResult(t, res.resp, wantGemm(t, blockerReq()), 1e-9)
}

// gemmTrip is a rank's ctx that calls stop once its n-th gemm has run. It
// forwards the engine's window get, so its fetches stay where they lie.
type gemmTrip struct {
	rt.Ctx
	n    int
	stop func()
}

func (g *gemmTrip) Unwrap() rt.Ctx { return g.Ctx }

func (g *gemmTrip) GetWindow(ga rt.Global, rank, off, ld, rows, cols int) (rt.Mat, bool) {
	return g.Ctx.(rt.WindowGetter).GetWindow(ga, rank, off, ld, rows, cols)
}

func (g *gemmTrip) Gemm(alpha float64, a, b rt.Mat, beta float64, c rt.Mat) {
	g.Ctx.Gemm(alpha, a, b, beta, c)
	if g.n--; g.n == 0 {
		g.stop()
	}
}

// TestDefaultTeamsShareOperandWindows: the default pool's two teams run the
// serving job at once over one request's A and B, every cross-domain block
// read through its owner's window, while one job is cancelled mid-list. The
// other job's C is bit for bit a lone run's, the cancelled team's next job
// is too, and no rank takes scratch for a fetch.
func TestDefaultTeamsShareOperandWindows(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2})
	if s.cfg.Teams != 2 {
		t.Fatalf("default pool has %d teams, want 2", s.cfg.Teams)
	}
	req := randReq(130, 129, 131, 7)
	spec := func(cancel <-chan struct{}) *ipcrt.JobSpec {
		return &ipcrt.JobSpec{M: 130, N: 131, K: 129, Alpha: 1, Data: true, A: req.A, B: req.B,
			MaxTaskK: 16, Cancel: cancel, Out: mat.New(130, 131)}
	}
	// run runs sp on tm, rank 0's ctx tripping stop after its second gemm
	// when stop is set, and fails on anything but a rank's cancellation.
	run := func(tm *armci.Team, sp *ipcrt.JobSpec, stop func()) []error {
		errs := make([]error, s.topo.NProcs)
		stats, err := tm.Run(func(c rt.Ctx) {
			if stop != nil && c.Rank() == 0 {
				c = &gemmTrip{Ctx: c, n: 2, stop: stop}
			}
			_, errs[c.Rank()] = job.Run(c, sp, nil)
		})
		if err != nil {
			t.Error(err)
			return errs
		}
		for rank, st := range stats {
			if st.ScratchBytes != 0 || st.GetsRemote == 0 {
				t.Errorf("rank %d: %d remote gets into %d B of scratch, want some through windows and none", rank, st.GetsRemote, st.ScratchBytes)
			}
			if errs[rank] != nil && !errors.Is(errs[rank], core.ErrCancelled) {
				t.Errorf("rank %d: %v", rank, errs[rank])
			}
		}
		return errs
	}
	same := func(what string, got, want *mat.Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: C[%d] = %v, a lone run's %v", what, i, got.Data[i], want.Data[i])
			}
		}
	}

	teams := make([]*armci.Team, s.cfg.Teams)
	for i := range teams {
		tm, err := armci.NewTeam(s.topo)
		if err != nil {
			t.Fatal(err)
		}
		defer tm.Close()
		teams[i] = tm
	}
	lone := spec(nil)
	run(teams[0], lone, nil)
	checkResult(t, MultiplyResponse{Rows: 130, Cols: 131, C: lone.Out.Data}, wantGemm(t, req), 1e-9)

	cancel := make(chan struct{})
	kept, cut := spec(nil), spec(cancel)
	var wg sync.WaitGroup
	var cutErrs []error
	wg.Add(2)
	go func() { defer wg.Done(); run(teams[0], kept, nil) }()
	go func() { defer wg.Done(); cutErrs = run(teams[1], cut, func() { close(cancel) }) }()
	wg.Wait()
	if !errors.Is(cutErrs[0], core.ErrCancelled) {
		t.Fatalf("rank 0 of the cut job returned %v after its second gemm, want cancellation", cutErrs[0])
	}
	same("job beside a cancelled one", kept.Out, lone.Out)

	again := spec(nil)
	run(teams[1], again, nil)
	same("next job on the cancelled team", again.Out, lone.Out)
}

// TestServerSchedShutdownDrains: graceful shutdown — the
// admitted request completes, new work and healthz are refused, and the
// pooled teams close clean.
func TestServerSchedShutdownDrains(t *testing.T) {
	s, err := New(Config{NProcs: 4, Teams: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	release, entered := blockOn(s, "blocker")
	blocker := randReq(16, 16, 16, 1)
	blocker.ID = "blocker"
	want := wantGemm(t, blocker)
	blockerCh := postAsync(t, s, blocker)
	<-entered

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	if code, _ := post(t, s, blocker, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("multiply during drain: status %d, want 503", code)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", w.Code)
	}

	release()
	res := <-blockerCh
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200", res.code)
	}
	checkResult(t, res.resp, want, 0)
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerIgnoresRetiredSchedulingInputs: a request that still names a
// workload class or a scheduling deadline — in the JSON body, or as the
// binary wire's X-Srumma-Class / X-Srumma-Deadline-Ms headers — is served
// in arrival order like any other, bit for bit what its untagged twin
// gets, whatever values those inputs hold; and /metrics reports no
// per-class breakdown.
func TestServerIgnoresRetiredSchedulingInputs(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	for _, req := range []MultiplyRequest{randReq(24, 24, 24, 31), randReq(130, 130, 130, 32)} {
		var twin MultiplyResponse
		if code, w := post(t, s, req, &twin); code != http.StatusOK {
			t.Fatalf("untagged JSON: status %d: %s", code, w.Body.String())
		}

		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		tagged := append([]byte(`{"class":"bogus","deadline_ms":5,`), body[1:]...)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(tagged)))
		if w.Code != http.StatusOK {
			t.Fatalf("JSON with class and deadline_ms: status %d: %s", w.Code, w.Body.String())
		}
		var resp MultiplyResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Route != twin.Route || !bitsEqual(resp.C, twin.C) {
			t.Fatalf("JSON with class and deadline_ms: route %s, want %s, or a different product", resp.Route, twin.Route)
		}

		wb := binPost(t, s, req, "", "X-Srumma-Class", "bogus", "X-Srumma-Deadline-Ms", "-1")
		if wb.Code != http.StatusOK {
			t.Fatalf("binary with class and deadline headers: status %d: %s", wb.Code, wb.Body.String())
		}
		if _, _, c := decodeBinRecorder(t, wb); !bitsEqual(c, twin.C) {
			t.Fatal("binary with class and deadline headers: a different product")
		}
		if wb.Header().Get("X-Srumma-Class") != "" {
			t.Fatalf("response carries X-Srumma-Class %q", wb.Header().Get("X-Srumma-Class"))
		}
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if _, ok := m["classes"]; ok {
		t.Fatalf("/metrics has a classes key: %s", m["classes"])
	}
}

// TestRateWindow pins the recent-throughput estimator feeding Retry-After
// (the 8-second obs.RateWindow the serving layer uses).
func TestRateWindow(t *testing.T) {
	const windowSecs = 8
	var rw obs.RateWindow
	now := time.Unix(5000, 0)
	for i := 0; i < 40; i++ {
		rw.Record(now)
	}
	if got := rw.RPS(now); got != 40.0/windowSecs {
		t.Fatalf("rps = %g, want %g", got, 40.0/windowSecs)
	}
	// Completions age out of the window.
	later := now.Add((windowSecs + 1) * time.Second)
	if got := rw.RPS(later); got != 0 {
		t.Fatalf("rps after window = %g, want 0", got)
	}
	// Spread load: 1/sec for 8s is 1 rps.
	var rw2 obs.RateWindow
	for i := 0; i < windowSecs; i++ {
		rw2.Record(now.Add(time.Duration(i) * time.Second))
	}
	if got := rw2.RPS(now.Add((windowSecs - 1) * time.Second)); got != 1 {
		t.Fatalf("spread rps = %g, want 1", got)
	}
}
