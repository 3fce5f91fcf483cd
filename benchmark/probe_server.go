package main

import (
	"bytes"
	"runtime"
	"time"

	"srumma/internal/server"
)

// Layer probe: internal/server (and the scheduler as the server reports it).
// Pins server.MetricsSnapshot fields Wire["binary"], Cache, Sched, Rejected,
// Recovery.Retries, Cluster[].CoordAddr; the X-Srumma-Route/-Queue-Ms/
// -Elapsed-Ms/-Cached response headers; and the two client codec functions.

// serveObs is one timed closed loop against a server, bracketed by snapshots
// of the server's own counters.
type serveObs struct {
	samples    []sample
	win        window
	before     server.MetricsSnapshot
	after      server.MetricsSnapshot
	allocBytes uint64
}

func observeServe(sys *serveSystem, base int, b budget, box *boxClock) serveObs {
	var o serveObs
	var m0, m1 runtime.MemStats
	o.before = sys.srv.Metrics()
	runtime.ReadMemStats(&m0)
	o.samples, o.win = timed(sys.w.clients, len(sys.w.round), b, box, func(c, i int) sample { return sys.op(c, base+i) })
	runtime.ReadMemStats(&m1)
	o.after = sys.srv.Metrics()
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return o
}

// expectedRoute is what a request's X-Srumma-Route must read: the workload's
// route for a computed result, "cache" for a result served from the cache.
func expectedRoute(w *workload, s *sample) string {
	if s.cached {
		return "cache"
	}
	return w.route
}

// serverMetrics turns a loopback run and a direct-handler run of the same
// requests into the server and scheduler layer metrics, and records a problem
// when the responses took another path than the workload intends.
func serverMetrics(w *workload, loop, direct serveObs, rec *record) {
	m, diag := rec.Metrics, rec.Diagnostics
	ops := float64(loop.win.attempted)
	// Queueing and execution exist only for requests that were computed; a
	// cache hit has neither.
	computed := func(s *sample) bool { return !s.cached }
	m.set("sched.queue_ms_p50", "ms", medianOf(loop.samples, computed, func(s *sample) float64 { return s.queueMs }))
	m.set("server.exec_ms_p50", "ms", medianOf(loop.samples, computed, func(s *sample) float64 { return s.execMs }))

	// What the handler spends outside the scheduler and the engine — decode,
	// digest, admission, encode — request by request.
	handler := medianOf(direct.samples, nil, latencyMs)
	m.set("server.handler_ms_p50", "ms", handler)
	m.set("server.self_ms_p50", "ms", medianOf(direct.samples, nil, func(s *sample) float64 {
		return latencyMs(s) - s.queueMs - s.execMs
	}))
	m.set("server.transport_ms_p50", "ms", loop.win.p50-handler)

	// Useful outcomes over attempts, from the responses themselves: a
	// routing change cannot silently move a workload onto another path.
	onRoute, hits := 0, 0
	for i := range loop.samples {
		s := &loop.samples[i]
		if s.failed {
			continue
		}
		if s.route == expectedRoute(w, s) {
			onRoute++
		}
		if s.cached {
			hits++
		}
	}
	m.set("server.route_share", "ratio", float64(onRoute)/ops)
	if onRoute != loop.win.attempted {
		rec.problem("server.route_share: %d of %d responses came by the intended route", onRoute, loop.win.attempted)
	}
	if c0, c1 := loop.before.Cache, loop.after.Cache; w.revisit && c0 != nil && c1 != nil {
		// By construction two of every three requests resend a body the
		// cache holds: the responses must say so, and the cache's own
		// counters must agree.
		dHits, looked := c1.Hits-c0.Hits, c1.Hits-c0.Hits+c1.Misses-c0.Misses
		diag.set("server.cache_hit_ratio", "ratio", float64(dHits)/float64(looked))
		if dHits*3 != looked*2 || hits*3 != loop.win.attempted*2 {
			rec.problem("server.cache_hit_ratio: cache counts %d hits of %d lookups, %d of %d responses were cached; want exactly 2/3",
				dHits, looked, hits, loop.win.attempted)
		}
		diag.set("server.hit_latency_ms_p50", "ms", medianOf(loop.samples, func(s *sample) bool { return s.cached }, latencyMs))
		diag.set("server.miss_latency_ms_p50", "ms", medianOf(loop.samples, computed, latencyMs))
	}

	b0, b1 := loop.before.Wire["binary"], loop.after.Wire["binary"]
	reqs := float64(b1.Requests - b0.Requests)
	m.set("server.bytes_in_per_op", "B", float64(b1.BytesIn-b0.BytesIn)/reqs)
	m.set("server.bytes_out_per_op", "B", float64(b1.BytesOut-b0.BytesOut)/reqs)
	m.set("server.rejected_429_per_op", "count", float64(loop.after.Rejected-loop.before.Rejected)/ops)
	m.set("server.retries_per_op", "count", float64(loop.after.Recovery.Retries-loop.before.Recovery.Retries)/ops)
	m.set("server.alloc_kb_per_op", "kB", float64(loop.allocBytes)/1024/ops)

	occupancy, dispatches := 0.0, 0.0
	if s0, s1 := loop.before.Sched, loop.after.Sched; s0 != nil && s1 != nil && s1.Dispatches > s0.Dispatches {
		dispatches = float64(s1.Dispatches - s0.Dispatches)
		occupancy = float64(s1.DispatchedTasks-s0.DispatchedTasks) / dispatches
	}
	m.set("sched.batch_occupancy", "count", occupancy)
	m.set("sched.dispatches_per_op", "count", dispatches/ops)
}

// probeCodec times the client half of the binary wire at the workload's
// primary shape: encoding a request and decoding a response of that size.
// The server's response encoder is not public, so body is one a real request
// produced.
func probeCodec(w *workload, its *items, body []byte, m metrics) error {
	it := its.byShape[w.primary()][0]
	const reps = 15
	enc, dec := make([]float64, reps), make([]float64, reps)
	for i := range reps {
		t0 := time.Now()
		if _, err := server.EncodeBinaryRequest(it.req); err != nil {
			return err
		}
		enc[i] = time.Since(t0).Seconds()
		t0 = time.Now()
		if _, _, _, err := server.DecodeBinaryResponse(bytes.NewReader(body)); err != nil {
			return err
		}
		dec[i] = time.Since(t0).Seconds()
	}
	m.set("server.encode_req_us", "us", median(enc)*1e6)
	m.set("server.decode_resp_us", "us", median(dec)*1e6)
	return nil
}
