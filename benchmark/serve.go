package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"srumma/internal/server"
)

// serveSystem is the serving path: an in-process server.New(cfg) behind
// httptest.NewServer over real loopback TCP, binary wire both ways, one
// keep-alive connection per client. With direct set the same requests go
// straight into the handler (no socket), which is how the probes separate
// handler time from transport time.
type serveSystem struct {
	w      *workload
	its    *items
	ck     *checker
	srv    *server.Server
	ts     *httptest.Server
	url    string
	send   []func(*http.Request) (*http.Response, error) // one per client
	conns  []*http.Transport
	tr     *tracer // nil when untraced
	direct bool
	// firstBody is the first response body a direct system produced, kept
	// for the client codec probe.
	firstBody     []byte
	firstBodyOnce sync.Once
}

func newServeSystem(w *workload, its *items, ck *checker, direct bool) (*serveSystem, error) {
	srv, err := server.New(w.cfg)
	if err != nil {
		return nil, err
	}
	s := &serveSystem{w: w, its: its, ck: ck, srv: srv, url: "http://direct"}
	if !direct {
		s.ts = httptest.NewServer(srv.Handler())
		s.url = s.ts.URL
	}
	h := srv.Handler()
	for range w.clients {
		if direct {
			s.send = append(s.send, func(r *http.Request) (*http.Response, error) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				if rec.Code == http.StatusOK {
					s.firstBodyOnce.Do(func() { s.firstBody = bytes.Clone(rec.Body.Bytes()) })
				}
				return rec.Result(), nil
			})
			continue
		}
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.conns = append(s.conns, tp)
		s.send = append(s.send, (&http.Client{Transport: tp}).Do)
	}
	return s, nil
}

func (s *serveSystem) request(it *item) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/multiply", bytes.NewReader(it.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", server.ContentTypeBinary)
	req.Header.Set("Accept", server.ContentTypeBinaryResult)
	return req, nil
}

// op times one request from writing it to having read and decoded the whole
// response body, which is when a caller holds C. With a tracer attached the
// same clock readings become spans: encoding a fresh request, the round trip
// up to the response headers, reading and decoding the body.
func (s *serveSystem) op(client, i int) sample {
	begin := time.Now()
	it, fresh := s.its.at(client, i)
	sm := sample{flops: it.g.flops()}
	req, err := s.request(it)
	if err != nil {
		sm.failed = true
		return sm
	}
	t0 := time.Now()
	resp, err := s.send[client](req)
	if err != nil {
		sm.latency, sm.failed = time.Since(t0), true
		return sm
	}
	t1 := time.Now()
	var c []float64
	if resp.StatusCode == http.StatusOK {
		_, _, c, err = server.DecodeBinaryResponse(resp.Body)
	}
	drain(resp)
	end := time.Now()
	sm.latency = end.Sub(t0)
	s.finish(&sm, resp, c, err, it, fresh, client, i)
	if s.tr == nil {
		return sm
	}

	lane := fmt.Sprintf("client%d", client)
	root := s.tr.reserve()
	args := map[string]float64{"queue_ms": sm.queueMs, "elapsed_ms": sm.execMs, "bytes_in": float64(len(it.body)), "bytes_out": float64(8 * len(c))}
	if sm.cached {
		args["cached"] = 1
	}
	s.tr.add(span{ID: root, Op: root, Name: "op", Lane: lane, Start: begin, End: end, Args: args})
	if s.w.revisit && fresh {
		s.tr.add(span{Parent: root, Op: root, Name: "server.encode_req", Lane: lane, Start: begin, End: t0})
	}
	s.tr.add(span{Parent: root, Op: root, Name: "http.roundtrip", Lane: lane, Start: t0, End: t1})
	s.tr.add(span{Parent: root, Op: root, Name: "server.decode_resp", Lane: lane, Start: t1, End: end})
	return sm
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // an unread tail would cost the keep-alive connection
	resp.Body.Close()
}

// finish fills the sample from the response headers and verifies the result.
// A response from another route than the workload's intended one — or a cache
// hit where the stream sent a body for the first time, or a computation where
// it resent one — counts as a failed operation: the numbers would be those of a
// different path.
func (s *serveSystem) finish(sm *sample, resp *http.Response, c []float64, err error, it *item, fresh bool, client, i int) {
	if err != nil || resp.StatusCode != http.StatusOK {
		sm.failed = true
		return
	}
	h := resp.Header
	sm.route = h.Get("X-Srumma-Route")
	sm.cached = h.Get("X-Srumma-Cached") == "1"
	sm.queueMs, _ = strconv.ParseFloat(h.Get("X-Srumma-Queue-Ms"), 64)
	sm.execMs, _ = strconv.ParseFloat(h.Get("X-Srumma-Elapsed-Ms"), 64)
	if sm.cached == fresh || sm.route != expectedRoute(s.w, sm) {
		sm.failed = true
	}
	s.ck.check(sm, it, c, client, i)
}

// runDirs are the worker nodes' run directories (control socket, rank
// sockets, segment files), as the server's own metrics name them.
func (s *serveSystem) runDirs() []string {
	var dirs []string
	for _, node := range s.srv.Metrics().Cluster {
		if path, ok := strings.CutPrefix(node.CoordAddr, "unix:"); ok {
			dirs = append(dirs, filepath.Dir(path))
		}
	}
	return dirs
}

func (s *serveSystem) close() []string {
	dirs := s.runDirs()
	var left []string
	for _, tp := range s.conns {
		tp.CloseIdleConnections()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		left = append(left, fmt.Sprintf("server shutdown: %v", err))
	}
	return append(left, leaks(dirs)...)
}
