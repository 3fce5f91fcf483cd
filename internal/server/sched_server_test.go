package server

// Scheduler serving tests: batching bit-identity, priority dispatch,
// deadline handling, overflow, elastic pooling, drain, and the chaos case
// where an executor crash mid-batch requeues the batch's unfinished tasks.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/sched"
)

// blockOn installs a batch hook that parks any dispatch whose request ID
// matches id until the returned release func is called. It pins one
// scheduler worker — the only one on a Teams: 1 pool — so tests can build a
// backlog deterministically.
func blockOn(s *Server, id string) (release func(), entered <-chan struct{}) {
	rel := make(chan struct{})
	ent := make(chan struct{})
	var onceEnter sync.Once
	s.setBatchHook(func(tk *sched.Task) {
		job := tk.Payload.(*schedJob)
		if job.req.ID == id {
			onceEnter.Do(func() { close(ent) })
			<-rel
		}
	})
	var onceRel sync.Once
	return func() { onceRel.Do(func() { close(rel) }) }, ent
}

// blockerReq is the request tests park in the batch hook to pin a pool
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

// TestServerSchedBatchingBitIdentical pre-queues a pile of small GEMMs
// behind a pinned worker, releases it, and verifies they were served by
// coalesced dispatches with results BIT-IDENTICAL to the serial kernel.
func TestServerSchedBatchingBitIdentical(t *testing.T) {
	const n = 24
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: n + 4, BatchMax: n})
	release, entered := blockOn(s, "blocker")

	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered

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
	sawCoalesced := false
	for i, ch := range chans {
		res := <-ch
		if res.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, res.code)
		}
		if res.resp.Route != routeSmall {
			t.Fatalf("request %d routed %q, want small", i, res.resp.Route)
		}
		if res.resp.Batch > 1 {
			sawCoalesced = true
		}
		want := wantGemm(t, reqs[i])
		got := &mat.Matrix{Rows: res.resp.Rows, Cols: res.resp.Cols, Stride: res.resp.Cols, Data: res.resp.C}
		if diff := mat.MaxAbsDiff(got, want); diff != 0 {
			t.Fatalf("request %d: batched result differs from serial by %g, want bit-identical", i, diff)
		}
	}
	if !sawCoalesced {
		t.Fatal("no request was served by a coalesced dispatch")
	}
	m := s.Metrics()
	if m.Sched == nil {
		t.Fatal("metrics missing sched section")
	}
	if m.Sched.BatchOccupancy <= 1 {
		t.Fatalf("batch occupancy %g, want > 1", m.Sched.BatchOccupancy)
	}
	if m.Sched.MaxBatch < 2 {
		t.Fatalf("max batch %d, want >= 2", m.Sched.MaxBatch)
	}
}

// TestServerSchedPriorityOrder: with equal virtual time, an interactive
// request dispatches ahead of an earlier-submitted batch request.
func TestServerSchedPriorityOrder(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: 8, SmallMNK: 1})

	var mu sync.Mutex
	var order []string
	rel := make(chan struct{})
	entered := make(chan struct{})
	var onceEnter sync.Once
	s.setBatchHook(func(tk *sched.Task) {
		job := tk.Payload.(*schedJob)
		if job.req.ID == "blocker" {
			onceEnter.Do(func() { close(entered) })
			<-rel
			return
		}
		mu.Lock()
		order = append(order, job.req.ID)
		mu.Unlock()
	})

	blocker := randReq(24, 24, 24, 1)
	blocker.ID = "blocker"
	blocker.Class = "batch"
	blockerCh := postAsync(t, s, blocker)
	<-entered

	// Batch-class first, interactive second: dispatch order must invert.
	bReq := randReq(24, 24, 24, 2)
	bReq.ID = "batch-req"
	bReq.Class = "batch"
	bCh := postAsync(t, s, bReq)
	waitQueued(t, s, 1)
	iReq := randReq(24, 24, 24, 3)
	iReq.ID = "interactive-req"
	iReq.Class = "interactive"
	iCh := postAsync(t, s, iReq)
	waitQueued(t, s, 2)
	close(rel)

	for _, ch := range []<-chan struct {
		code int
		resp MultiplyResponse
	}{blockerCh, bCh, iCh} {
		if res := <-ch; res.code != http.StatusOK {
			t.Fatalf("request failed with %d", res.code)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "interactive-req" || order[1] != "batch-req" {
		t.Fatalf("dispatch order %v, want [interactive-req batch-req]", order)
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

// TestServerSchedChaosCrashRequeue: an executor panic mid-batch (injected
// via the batch hook, recovered by the executor) fails the dispatch; the
// task it held is requeued and every request still completes correctly.
func TestServerSchedChaosCrashRequeue(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: n + 4, BatchMax: n})

	rel := make(chan struct{})
	entered := make(chan struct{})
	var onceEnter sync.Once
	var crashed atomic.Bool
	s.setBatchHook(func(tk *sched.Task) {
		job := tk.Payload.(*schedJob)
		if job.req.ID == "blocker" {
			onceEnter.Do(func() { close(entered) })
			<-rel
			return
		}
		if crashed.CompareAndSwap(false, true) {
			panic("chaos: injected rank crash mid-batch")
		}
	})

	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered

	reqs := make([]MultiplyRequest, n)
	chans := make([]<-chan struct {
		code int
		resp MultiplyResponse
	}, n)
	for i := range reqs {
		reqs[i] = randReq(16, 16, 16, uint64(2000+i))
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
			t.Fatalf("request %d: result differs by %g after requeue", i, diff)
		}
	}
	m := s.Metrics()
	if m.Sched == nil || m.Sched.Requeued == 0 {
		t.Fatalf("crash did not requeue any tasks: %+v", m.Sched)
	}
	if m.Completed != n+1 {
		t.Fatalf("completed_total = %d, want %d", m.Completed, n+1)
	}
	// A small batch runs on no team, so none was wedged and replaced here;
	// when the scheduler does replace one (pool_replaced), /metrics must
	// report it as teams_replaced_total.
	if m.TeamsReplaced != 0 {
		t.Fatalf("teams_replaced_total = %d after a clean unwind, want 0", m.TeamsReplaced)
	}
	s.met.reg.Counter("sched.pool_replaced").Add(1)
	if got := s.Metrics().TeamsReplaced; got != 1 {
		t.Fatalf("teams_replaced_total = %d with sched.pool_replaced = 1, want 1", got)
	}
}

// TestServerSchedElasticPool: the team pool grows under backlog up to
// MaxTeams and shrinks back to Teams when idle.
func TestServerSchedElasticPool(t *testing.T) {
	// BatchMax 1 keeps every dispatch a singleton, so the blocked workers
	// cannot swallow the whole backlog into one batch — the queue stays
	// deep and growth is observable.
	s := newTestServer(t, Config{
		NProcs: 2, Teams: 1, MaxTeams: 3, QueueCap: 64, BatchMax: 1,
		TeamIdleAfter: 20 * time.Millisecond,
	})
	rel := make(chan struct{})
	s.setBatchHook(func(tk *sched.Task) { <-rel })

	const n = 24
	chans := make([]<-chan struct {
		code int
		resp MultiplyResponse
	}, n)
	for i := range chans {
		chans[i] = postAsync(t, s, randReq(16, 16, 16, uint64(3000+i)))
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Sched.Workers < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never grew to MaxTeams (at %d)", s.Metrics().Sched.Workers)
		}
		time.Sleep(time.Millisecond)
	}
	if w := s.Metrics().Sched.Workers; w > 3 {
		t.Fatalf("pool exceeded MaxTeams: %d", w)
	}
	close(rel)
	for i, ch := range chans {
		if res := <-ch; res.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, res.code)
		}
	}
	// Idle: the pool shrinks back to the floor and no further.
	deadline = time.Now().Add(10 * time.Second)
	for s.Metrics().Sched.Workers != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never shrank to Teams (at %d)", s.Metrics().Sched.Workers)
		}
		time.Sleep(time.Millisecond)
	}
	m := s.Metrics()
	if m.Sched.PoolGrown == 0 || m.Sched.PoolShrunk == 0 {
		t.Fatalf("elasticity counters not moving: %+v", m.Sched)
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

// TestServerSchedClassValidation: an unknown class is a 400, and classes
// are echoed in responses and broken out in metrics.
func TestServerSchedClassValidation(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(8, 8, 8, 1)
	req.Class = "bulk"
	if code, _ := post(t, s, req, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown class: status %d, want 400", code)
	}
	req.Class = "batch"
	var resp MultiplyResponse
	if code, _ := post(t, s, req, &resp); code != http.StatusOK {
		t.Fatalf("batch class: status %d", code)
	}
	if resp.Class != "batch" {
		t.Fatalf("response class %q, want batch", resp.Class)
	}
	m := s.Metrics()
	if m.Classes["batch"].Count != 1 {
		t.Fatalf("batch class count = %d, want 1", m.Classes["batch"].Count)
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
