package server

// The small route without a team: a request on an idle pool is computed by
// its own handler goroutine, results come from (and go back to) the operand
// pool, and a binary response says how long it is.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"srumma/internal/mat"
	"srumma/internal/sched"
)

// TestSmallRequestsRunOnTheirHandlers holds GOMAXPROCS+1 simultaneous small
// requests in the dispatch hook: GOMAXPROCS of them are computing on their own
// handler goroutines, so exactly one went through the queue to the pool's
// worker — and every result is bit-identical to the serial kernel.
func TestSmallRequestsRunOnTheirHandlers(t *testing.T) {
	procs := goruntime.GOMAXPROCS(0)
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: procs + 4})
	rel := make(chan struct{})
	var held atomic.Int64
	s.setDispatchHook(func(*sched.Task) {
		held.Add(1)
		<-rel
	})

	reqs := make([]MultiplyRequest, procs+1)
	chans := make([]<-chan struct {
		code int
		resp MultiplyResponse
	}, len(reqs))
	for i := range reqs {
		reqs[i] = randReq(20+i%3, 17+i%5, 24+i%2, uint64(7000+i))
		chans[i] = postAsync(t, s, reqs[i])
	}
	waitFor(t, "every request to reach the hook", func() bool { return int(held.Load()) == len(reqs) })
	if sc := s.Metrics().Sched; sc.InlineDispatches != uint64(procs) || sc.Dispatches != uint64(procs+1) || sc.Queued != 0 {
		t.Errorf("%d of %d dispatches were caller-run with %d queued, want %d of %d and 0",
			sc.InlineDispatches, sc.Dispatches, sc.Queued, procs, procs+1)
	}
	close(rel)

	for i, ch := range chans {
		res := <-ch
		if res.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, res.code)
		}
		if res.resp.Route != routeSmall {
			t.Errorf("request %d: route %q, want small", i, res.resp.Route)
		}
		want := wantGemm(t, reqs[i])
		got := &mat.Matrix{Rows: res.resp.Rows, Cols: res.resp.Cols, Stride: res.resp.Cols, Data: res.resp.C}
		if diff := mat.MaxAbsDiff(got, want); diff != 0 {
			t.Errorf("request %d: result differs from mat.Gemm by %g, want bit-identical", i, diff)
		}
	}
	if sc := s.Metrics().Sched; sc.Failed != 0 {
		t.Errorf("failed %d, want 0", sc.Failed)
	}
}

// TestSmallRequestDeadlineDuringOwnRun: a request whose deadline passes
// while its own handler is computing it is answered 504, like one that was
// waiting for a worker.
func TestSmallRequestDeadlineDuringOwnRun(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: 8})
	s.setDispatchHook(func(tk *sched.Task) { <-tk.Payload.(*schedJob).ctx.Done() })
	req := randReq(16, 16, 16, 2)
	req.TimeoutMillis = 20
	code, w := post(t, s, req, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.200s", code, w.Body.String())
	}
	m := s.Metrics()
	if m.Sched.InlineDispatches != 1 || m.Sched.Dispatches != 1 {
		t.Fatalf("%d of %d dispatches caller-run, want the one", m.Sched.InlineDispatches, m.Sched.Dispatches)
	}
	if m.Cancelled != 1 || m.Sched.InFlight != 0 {
		t.Fatalf("cancelled_total %d, sched in flight %d; want 1 and 0", m.Cancelled, m.Sched.InFlight)
	}
	s.setDispatchHook(func(*sched.Task) {})
	req.TimeoutMillis = 0
	var resp MultiplyResponse
	if code, _ := post(t, s, req, &resp); code != http.StatusOK {
		t.Fatalf("next request: status %d, want 200", code)
	}
	checkResult(t, resp, wantGemm(t, req), 0)
}

// TestSmallRequestIsInFlightWhileItsHandlerRuns: server.in_flight counts a
// request from before Submit, so one being computed by its own handler —
// parked here in the dispatch hook — reads 1, and 0 again once answered.
func TestSmallRequestIsInFlightWhileItsHandlerRuns(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, Teams: 1, QueueCap: 8})
	req := randReq(16, 16, 16, 3)
	req.ID = "parked"
	release, entered := blockOn(s, req.ID)
	inFlight := func() string {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
		for _, line := range strings.Split(rr.Body.String(), "\n") {
			if strings.HasPrefix(line, "server_in_flight ") {
				return line
			}
		}
		return "no server_in_flight line"
	}
	ch := postAsync(t, s, req)
	<-entered
	if sc := s.Metrics().Sched; sc.InlineDispatches != 1 {
		t.Fatalf("%d caller-run dispatches, want the parked request's", sc.InlineDispatches)
	}
	if got := inFlight(); got != "server_in_flight 1" {
		t.Errorf("while the handler computes: %q, want server_in_flight 1", got)
	}
	release()
	if res := <-ch; res.code != http.StatusOK {
		t.Fatalf("status %d", res.code)
	}
	if got := inFlight(); got != "server_in_flight 0" {
		t.Errorf("after the answer: %q, want server_in_flight 0", got)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a measurement of
// the handler's allocations is not a measurement of the recorder's.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(c int)   { d.code = c }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestSmallResultComesFromThePool: with the cache off a small request
// allocates no result matrix — the bytes it allocates stay well below the
// size of its result.
func TestSmallResultComesFromThePool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(96, 96, 96, 900)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
		r.Header.Set("Content-Type", ContentTypeBinary)
		w := &discardWriter{h: http.Header{}}
		s.Handler().ServeHTTP(w, r)
		if want := binRespHeaderLen + 8*96*96; w.code != http.StatusOK || w.n != want {
			t.Fatalf("status %d with %d body bytes, want 200 with %d", w.code, w.n, want)
		}
	}
	// A collection empties the buffer pool — operands, result and pack
	// buffers alike — and the refills would be charged to the requests.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 8; i++ {
		serve() // warm the pool's size classes
	}
	const runs = 200
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		serve()
	}
	goruntime.ReadMemStats(&m1)
	perReq := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if result := uint64(8 * 96 * 96); perReq > result/2 {
		t.Fatalf("a small request allocates %d bytes; its result is %d, which must come from the pool", perReq, result)
	}
	if sc := s.Metrics().Sched; sc.InlineDispatches != sc.Dispatches {
		t.Fatalf("%d of %d dispatches caller-run, want all", sc.InlineDispatches, sc.Dispatches)
	}
}

// TestDistributedResultComesFromThePool: with the cache off a warm request
// on the in-process distributed route allocates no result matrix either —
// its C is pooled storage the ranks compute into in place — so the bytes it
// allocates stay well below the size of its result.
func TestDistributedResultComesFromThePool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const n = 256
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(n, n, n, 901)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
		r.Header.Set("Content-Type", ContentTypeBinary)
		w := &discardWriter{h: http.Header{}}
		s.Handler().ServeHTTP(w, r)
		if want := binRespHeaderLen + 8*n*n; w.code != http.StatusOK || w.n != want {
			t.Fatalf("status %d with %d body bytes, want 200 with %d", w.code, w.n, want)
		}
		if route := w.h.Get("X-Srumma-Route"); route != routeSRUMMA {
			t.Fatalf("route %q, want %q", route, routeSRUMMA)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 8; i++ {
		serve() // warm the pools: operands, result, pipe scratch, pack panels
	}
	const runs = 20
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		serve()
	}
	goruntime.ReadMemStats(&m1)
	perReq := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if result := uint64(8 * n * n); perReq >= result/2 {
		t.Fatalf("a distributed request allocates %d bytes; its result is %d, which must come from the pool", perReq, result)
	}
}

// TestCachedResultSurvivesPoolReuse: a result the cache holds is never
// storage the next requests compute into.
func TestCachedResultSurvivesPoolReuse(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 64})
	first := randReq(48, 48, 48, 4000)
	want := wantGemm(t, first)
	w := binPost(t, s, first, "")
	if w.Code != http.StatusOK || w.Header().Get("X-Srumma-Cached") != "" {
		t.Fatalf("first request: status %d, cached %q", w.Code, w.Header().Get("X-Srumma-Cached"))
	}
	// Same shape, other operands: every one of these takes operand and
	// result storage of the size class the first one used.
	for i := 0; i < 16; i++ {
		other := randReq(48, 48, 48, uint64(4100+2*i))
		if w := binPost(t, s, other, ""); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	w = binPost(t, s, first, "")
	if w.Code != http.StatusOK || w.Header().Get("X-Srumma-Cached") != "1" {
		t.Fatalf("repeat: status %d, cached %q, want a hit", w.Code, w.Header().Get("X-Srumma-Cached"))
	}
	_, _, c := decodeBinRecorder(t, w)
	if !bitsEqual(c, want.Data) {
		t.Fatal("the cached result changed while later requests ran")
	}
}

// TestBinaryResponseStatesItsLength: over a real connection a binary result
// carries Content-Length and is not chunked. The bytes counted out are the
// body.
func TestBinaryResponseStatesItsLength(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := randReq(40, 24, 32, 77)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("identity", func(t *testing.T) {
		before := s.Metrics().Wire[wireBinary].BytesOut
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/multiply", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", ContentTypeBinary)
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
		// The handler counts the bytes after writing the last of them, so
		// the client can hold the whole body first.
		bytesOut := func() uint64 { return s.Metrics().Wire[wireBinary].BytesOut - before }
		waitFor(t, "bytes_out to move", func() bool { return bytesOut() != 0 })
		if out := bytesOut(); out != uint64(len(got)) {
			t.Errorf("bytes_out grew by %d for a body of %d", out, len(got))
		}
		if want := binRespHeaderLen + 8*40*32; len(got) != want || resp.ContentLength != int64(want) {
			t.Fatalf("body %d bytes, Content-Length %d, want both %d", len(got), resp.ContentLength, want)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("Transfer-Encoding %v on a response of known length", resp.TransferEncoding)
		}
		if _, _, c, err := DecodeBinaryResponse(bytes.NewReader(got)); err != nil || !bitsEqual(c, wantGemm(t, req).Data) {
			t.Fatalf("decoded result wrong (decode error %v)", err)
		}
	})
}
