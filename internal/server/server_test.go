package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"srumma/internal/mat"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// post runs one request through the handler and decodes the body into out
// (when non-nil), returning the HTTP status and response recorder.
func post(t *testing.T, s *Server, req MultiplyRequest, out any) (int, *httptest.ResponseRecorder) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
	s.Handler().ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return w.Code, w
}

// wantGemm computes the serial reference result for req.
func wantGemm(t *testing.T, req MultiplyRequest) *mat.Matrix {
	t.Helper()
	cs, err := parseCase(req.Case)
	if err != nil {
		t.Fatal(err)
	}
	d, err := req.dims(cs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a := &mat.Matrix{Rows: req.ARows, Cols: req.ACols, Stride: req.ACols, Data: req.A}
	b := &mat.Matrix{Rows: req.BRows, Cols: req.BCols, Stride: req.BCols, Data: req.B}
	c := mat.New(d.M, d.N)
	if req.beta() != 0 {
		copy(c.Data, req.C)
	}
	if err := mat.Gemm(cs.TransA(), cs.TransB(), req.alpha(), a, b, req.beta(), c); err != nil {
		t.Fatal(err)
	}
	return c
}

func randReq(m, k, n int, seed uint64) MultiplyRequest {
	a := mat.Random(m, k, seed)
	b := mat.Random(k, n, seed+1)
	return MultiplyRequest{
		ARows: m, ACols: k, A: a.Data,
		BRows: k, BCols: n, B: b.Data,
	}
}

func checkResult(t *testing.T, resp MultiplyResponse, want *mat.Matrix, tol float64) {
	t.Helper()
	if resp.Rows != want.Rows || resp.Cols != want.Cols {
		t.Fatalf("result shape %dx%d, want %dx%d", resp.Rows, resp.Cols, want.Rows, want.Cols)
	}
	got := &mat.Matrix{Rows: resp.Rows, Cols: resp.Cols, Stride: resp.Cols, Data: resp.C}
	if diff := mat.MaxAbsDiff(got, want); diff > tol {
		t.Fatalf("result wrong: max abs diff %g > %g", diff, tol)
	}
}

func TestServerSmallRouteMatchesSerial(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(32, 48, 24, 100)
	req.ID = "small-1"
	var resp MultiplyResponse
	code, _ := post(t, s, req, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if resp.Route != routeSmall {
		t.Fatalf("route %q, want %q", resp.Route, routeSmall)
	}
	if resp.ID != "small-1" {
		t.Fatalf("response ID %q not echoed", resp.ID)
	}
	checkResult(t, resp, wantGemm(t, req), 1e-10)
}

func TestServerSRUMMARouteMatchesSerial(t *testing.T) {
	// SmallMNK 1 forces every product onto the distributed engine.
	s := newTestServer(t, Config{NProcs: 4, SmallMNK: 1})
	alpha, beta := 1.5, -0.5
	for _, cse := range []string{"NN", "TN", "NT", "TT"} {
		req := randReq(48, 32, 40, 200)
		if cse == "TN" || cse == "TT" {
			req.ARows, req.ACols = req.ACols, req.ARows // stored transposed
		}
		if cse == "NT" || cse == "TT" {
			req.BRows, req.BCols = req.BCols, req.BRows
		}
		req.Case = cse
		req.Alpha, req.Beta = &alpha, &beta
		req.C = mat.Random(48, 40, 300).Data
		var resp MultiplyResponse
		code, w := post(t, s, req, &resp)
		if code != http.StatusOK {
			t.Fatalf("case %s: status %d: %s", cse, code, w.Body.String())
		}
		if resp.Route != routeSRUMMA {
			t.Fatalf("case %s: route %q, want %q", cse, resp.Route, routeSRUMMA)
		}
		checkResult(t, resp, wantGemm(t, req), 1e-9)
	}
}

func TestServerValidation(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 64})
	cases := []struct {
		name string
		req  MultiplyRequest
	}{
		{"bad case", func() MultiplyRequest { r := randReq(8, 8, 8, 1); r.Case = "XX"; return r }()},
		{"short a", func() MultiplyRequest { r := randReq(8, 8, 8, 1); r.A = r.A[:10]; return r }()},
		{"inner mismatch", func() MultiplyRequest { r := randReq(8, 8, 8, 1); r.BRows = 6; r.B = r.B[:6*8]; return r }()},
		{"over max dim", randReq(128, 8, 8, 1)},
		{"beta without c", func() MultiplyRequest {
			r := randReq(8, 8, 8, 1)
			b := 2.0
			r.Beta = &b
			return r
		}()},
		{"zero dim", func() MultiplyRequest { r := randReq(8, 8, 8, 1); r.ARows = 0; return r }()},
	}
	for _, tc := range cases {
		code, _ := post(t, s, tc.req, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Method check.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/multiply", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", w.Code)
	}
}

func TestServerMetricsSnapshot(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, SmallMNK: 32 * 32 * 32})
	small := randReq(16, 16, 16, 600)
	big := randReq(48, 48, 48, 700)
	for i := 0; i < 3; i++ {
		if code, w := post(t, s, small, nil); code != http.StatusOK {
			t.Fatalf("small %d: status %d: %s", i, code, w.Body.String())
		}
	}
	if code, w := post(t, s, big, nil); code != http.StatusOK {
		t.Fatalf("big: status %d: %s", code, w.Body.String())
	}

	m := s.Metrics()
	if m.Admitted != 4 || m.Completed != 4 {
		t.Fatalf("admitted/completed = %d/%d, want 4/4", m.Admitted, m.Completed)
	}
	if m.QueueDepth != 0 || m.Executing != 0 {
		t.Fatalf("idle server reports queue_depth=%d executing=%d", m.QueueDepth, m.Executing)
	}
	if m.Routes[routeSmall].Count != 3 {
		t.Fatalf("small route count = %d, want 3", m.Routes[routeSmall].Count)
	}
	if m.Routes[routeSRUMMA].Count != 1 {
		t.Fatalf("srumma route count = %d, want 1", m.Routes[routeSRUMMA].Count)
	}
	if m.LatencyP50Ms <= 0 || m.LatencyP99Ms < m.LatencyP50Ms {
		t.Fatalf("implausible latency quantiles: p50=%g p99=%g", m.LatencyP50Ms, m.LatencyP99Ms)
	}
	if m.FlopsTotal <= 0 || m.ThroughputRPS <= 0 {
		t.Fatalf("flops_total=%g throughput=%g, want positive", m.FlopsTotal, m.ThroughputRPS)
	}

	// The endpoint serves the same snapshot as JSON.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	var viaHTTP MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &viaHTTP); err != nil {
		t.Fatal(err)
	}
	if viaHTTP.Completed != 4 {
		t.Fatalf("/metrics completed_total = %d, want 4", viaHTTP.Completed)
	}
}

func TestServerInfoAndHealth(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", w.Code)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/info status %d", w.Code)
	}
	var info InfoResponse
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.NProcs != 4 || info.Teams != 2 || info.QueueCap != 8 || info.Kernel == "" {
		t.Fatalf("implausible info: %+v", info)
	}
}

// TestServerSequentialSRUMMARequests exercises the persistent team across
// many back-to-back requests through the full HTTP path.
func TestServerSequentialSRUMMARequests(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, SmallMNK: 1})
	req := randReq(32, 32, 32, 900)
	want := wantGemm(t, req)
	n := 20
	if testing.Short() {
		n = 5
	}
	for i := 0; i < n; i++ {
		var resp MultiplyResponse
		code, w := post(t, s, req, &resp)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, w.Body.String())
		}
		checkResult(t, resp, want, 1e-9)
	}
	if m := s.Metrics(); m.Completed != uint64(n) {
		t.Fatalf("completed_total = %d, want %d", m.Completed, n)
	}
}
