// Command srumma-load drives a running srumma-serve instance with a
// configurable concurrency level, shape mix and workload-class mix,
// verifies every result against the serial kernel, honors 429
// backpressure with Retry-After backoff, and emits a machine-readable
// benchmark report (BENCH_server.json): throughput plus p50/p99 latency
// overall, per mix entry and per workload class.
//
//	srumma-load -addr http://127.0.0.1:8711 -concurrency 8 -requests 64 \
//	    -mix 32x32x32,96x96x96,256x256x256 -classes interactive:3,batch:1 \
//	    -deadline 500ms -out BENCH_server.json
//
// With -bench-sched it instead runs the self-contained scheduler
// benchmark (no external server needed) and writes BENCH_sched.json:
//
//   - batch coalescing: >=64 queued 64x64x64 GEMMs executed through the
//     workload scheduler on one persistent engine team, three arms —
//     batched (BatchMax 64), coalescing disabled (BatchMax 1), and
//     per-request engine dispatch (a full distribute/SRUMMA/gather job
//     per product, the pre-scheduler serving path) — with batched
//     results checked bit-identical against the serial kernel;
//   - mixed load: an interactive/batch class mix driven through the full
//     HTTP server, reporting per-class latency quantiles.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/rt"
	"srumma/internal/sched"
	"srumma/internal/server"
)

type shape struct{ m, k, n int }

func (s shape) String() string { return fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n) }

func parseMix(spec string) ([]shape, error) {
	var out []shape
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		dims := strings.Split(part, "x")
		if len(dims) != 3 {
			return nil, fmt.Errorf("bad shape %q (want MxKxN)", part)
		}
		var s shape
		for i, p := range []*int{&s.m, &s.k, &s.n} {
			v, err := strconv.Atoi(dims[i])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("bad shape %q: dimension %q", part, dims[i])
			}
			*p = v
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	return out, nil
}

// classAssign is one slot of the cyclic class pattern: requests are
// tagged round-robin through the expanded weights, so a spec of
// "interactive:3,batch:1" tags 3 of every 4 requests interactive.
type classAssign struct {
	name       string
	deadlineMs int64
}

// parseClasses expands "interactive:3,batch:1" into the cyclic pattern.
// deadline, when positive, is attached (as the EDF placement hint
// deadline_ms) to interactive-class requests only: batch work is
// throughput-oriented and runs deadline-less.
func parseClasses(spec string, deadline time.Duration) ([]classAssign, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var pattern []classAssign
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasW := strings.Cut(part, ":")
		if _, err := sched.ParseClass(name); err != nil || name == "" {
			return nil, fmt.Errorf("bad class %q in %q", name, spec)
		}
		weight := 1
		if hasW {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight %q for class %q", weightStr, name)
			}
			weight = w
		}
		ca := classAssign{name: name}
		if name == sched.ClassInteractive.String() && deadline > 0 {
			ca.deadlineMs = deadline.Milliseconds()
		}
		for i := 0; i < weight; i++ {
			pattern = append(pattern, ca)
		}
	}
	if len(pattern) == 0 {
		return nil, fmt.Errorf("empty class spec %q", spec)
	}
	return pattern, nil
}

// workItem is one pre-generated request with its serial reference result.
type workItem struct {
	mix   int
	class string
	body  []byte // wire-encoded (and, under -gzip, compressed) request body
	want  *mat.Matrix

	id         string
	deadlineMs int64
	wire       string // "json" or "binary"
	gzip       bool
	dig        *digestCell
}

// digestCell records the first result digest the server reports for one
// operand set, so every later response to identical content — cache hit
// or recompute — can be checked against it. A mismatch means the cache
// returned a result for the wrong computation.
type digestCell struct {
	mu  sync.Mutex
	val string
}

func (d *digestCell) check(dig string) error {
	if d == nil || dig == "" {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.val == "" {
		d.val = dig
		return nil
	}
	if d.val != dig {
		return fmt.Errorf("result digest %s does not match earlier digest %s for identical operands", dig, d.val)
	}
	return nil
}

// outcome is one completed request as observed by the client.
type outcome struct {
	mix      int
	class    string
	route    string
	latency  float64 // seconds, including queueing and transport
	gflops   float64 // server-side execution rate
	retries  int     // 429 rounds before admission
	missed   bool    // 504: deadline exceeded before completion
	cached   bool    // served from the result cache
	bytesOut int64   // request body bytes shipped
	bytesIn  int64   // response body bytes received
	err      error
}

// byteCounter counts response bytes as they are read.
type byteCounter struct {
	r io.Reader
	n int64
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// MixReport is the per-shape slice of the benchmark report.
type MixReport struct {
	Shape        string  `json:"shape"`
	Route        string  `json:"route"`
	Count        int     `json:"count"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MeanMs       float64 `json:"mean_ms"`
	ServerGFlops float64 `json:"server_gflops_mean"`
}

// ClassReport is the per-workload-class slice of a report: the latency
// quantiles the scheduler's fairness and EDF policies act on.
type ClassReport struct {
	Count          int     `json:"count"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MeanMs         float64 `json:"mean_ms"`
	DeadlineMisses int     `json:"deadline_misses"`
}

// Report is the BENCH_server.json document.
type Report struct {
	Addr           string `json:"addr"`
	Concurrency    int    `json:"concurrency"`
	Requests       int    `json:"requests"`
	Mix            string `json:"mix"`
	Classes        string `json:"classes,omitempty"`
	DeadlineMs     int64  `json:"deadline_ms,omitempty"`
	Wire           string `json:"wire"`
	Gzip           bool   `json:"gzip,omitempty"`
	RepeatOperands int    `json:"repeat_operands,omitempty"`

	OK             int     `json:"ok"`
	Errors         int     `json:"errors"`
	Retries429     int     `json:"retries_429"`
	DeadlineMisses int     `json:"deadline_misses"`
	WallSeconds    float64 `json:"wall_s"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`

	// Client-observed wire traffic and cache behavior.
	BytesSent       int64   `json:"bytes_sent"`
	BytesReceived   int64   `json:"bytes_received"`
	CachedResponses int     `json:"cached_responses,omitempty"`
	CacheHits       int64   `json:"cache_hits,omitempty"`
	CacheHitRate    float64 `json:"cache_hit_rate,omitempty"`

	Mixes      []MixReport            `json:"mixes"`
	ClassStats map[string]ClassReport `json:"class_stats,omitempty"`

	ServerMetrics *server.MetricsSnapshot `json:"server_metrics,omitempty"`
}

func main() {
	// -bench-cluster runs cluster-mode servers that re-execute this binary
	// for their node ranks; a worker copy diverts here and never returns.
	ipcrt.MaybeWorker()

	log.SetFlags(0)
	log.SetPrefix("srumma-load: ")

	addr := flag.String("addr", "http://127.0.0.1:8711", "server base URL")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	requests := flag.Int("requests", 64, "total requests to issue")
	mixSpec := flag.String("mix", "32x32x32,96x96x96,192x192x192", "comma-separated MxKxN shapes, cycled")
	classSpec := flag.String("classes", "", `weighted workload-class mix, e.g. "interactive:3,batch:1", cycled (empty: untagged)`)
	deadline := flag.Duration("deadline", 0, "deadline_ms placement hint attached to interactive-class requests (0: none)")
	verify := flag.Bool("verify", true, "check every result against the serial kernel")
	tol := flag.Float64("tol", 1e-9, "max abs elementwise difference allowed under -verify")
	out := flag.String("out", "BENCH_server.json", "report path ('-' for stdout)")
	wait := flag.Duration("wait", 10*time.Second, "max time to wait for the server to report healthy")
	seed := flag.Uint64("seed", 1, "base seed for generated matrices")
	maxRetries := flag.Int("max-retries", 100, "429 retry rounds per request before giving up")
	wire := flag.String("wire", "json", `request wire format: "json" or "binary"`)
	gzipReq := flag.Bool("gzip", false, "gzip-compress request bodies (and, on the binary wire, accept gzip responses)")
	repeatOps := flag.Int("repeat-operands", 1, "distinct operand sets cycled per shape/class slot; with 1 (the default) every request for a shape repeats the same operands, so a server-side result cache hits on every revisit")
	minCacheHits := flag.Int64("min-cache-hits", -1, "fail unless the server reports at least this many result-cache hits after the run (-1: no check)")
	benchSched := flag.Bool("bench-sched", false, "run the self-contained scheduler benchmark (ignores -addr) and exit")
	benchChaos := flag.Bool("chaos", false, "run the self-contained crash-recovery benchmark (ignores -addr) and exit")
	benchWire := flag.Bool("bench-wire", false, "run the self-contained wire-format/cache benchmark (ignores -addr) and exit")
	benchCluster := flag.Bool("bench-cluster", false, "run the self-contained sharded-vs-in-process serving benchmark (ignores -addr) and exit")
	benchCache := flag.Bool("bench-cache", false, "run the self-contained cache-shaping sweep (hit rate vs cache size/TTL; ignores -addr) and exit")
	benchOverload := flag.Bool("bench-overload", false, "run the self-contained breaker/brownout policy sweep (ignores -addr) and exit")
	flag.Parse()

	if *benchSched {
		runBenchSched(*out, *seed)
		return
	}
	if *benchChaos {
		runBenchChaos(*out, *seed)
		return
	}
	if *benchWire {
		runBenchWire(*out, *seed)
		return
	}
	if *benchCluster {
		runBenchCluster(*out, *seed)
		return
	}
	if *benchCache {
		runBenchCache(*out, *seed)
		return
	}
	if *benchOverload {
		runBenchOverload(*out, *seed)
		return
	}
	if *wire != "json" && *wire != "binary" {
		log.Fatalf("bad -wire %q (want json or binary)", *wire)
	}
	if *repeatOps < 1 {
		log.Fatalf("bad -repeat-operands %d (want >= 1)", *repeatOps)
	}

	shapes, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	pattern, err := parseClasses(*classSpec, *deadline)
	if err != nil {
		log.Fatal(err)
	}
	if err := waitHealthy(*addr, *wait); err != nil {
		log.Fatal(err)
	}

	items := buildItems(shapes, pattern, *seed, *repeatOps, *wire, *gzipReq)
	pick := func(idx int) workItem {
		row := items[idx%len(items)]
		return row[idx%len(row)]
	}

	results, wall := drive(*addr, pick, *requests, *concurrency, *verify, *tol, *maxRetries)

	rep := buildReport(*addr, *concurrency, *requests, *mixSpec, shapes, results, wall)
	rep.Classes = *classSpec
	rep.DeadlineMs = deadline.Milliseconds()
	rep.Wire = *wire
	rep.Gzip = *gzipReq
	rep.RepeatOperands = *repeatOps
	if len(pattern) > 0 {
		rep.ClassStats = classStats(results)
	}
	rep.ServerMetrics = fetchMetrics(*addr)
	if rep.ServerMetrics != nil && rep.ServerMetrics.Cache != nil {
		rep.CacheHits = rep.ServerMetrics.Cache.Hits
		rep.CacheHitRate = rep.ServerMetrics.Cache.HitRate
	}

	if rep.Errors > 0 {
		for _, r := range results {
			if r.err != nil {
				log.Printf("FAIL %s: %v", shapes[r.mix], r.err)
			}
		}
	}
	writeReport(rep, *out)
	fmt.Printf("%d ok, %d errors, %d deadline misses, %d retry rounds (429), %.2f req/s, p50 %.1f ms, p99 %.1f ms [%s wire, %.1f KB out, %.1f KB in, %d cached]\n",
		rep.OK, rep.Errors, rep.DeadlineMisses, rep.Retries429, rep.ThroughputRPS, rep.P50Ms, rep.P99Ms,
		rep.Wire, float64(rep.BytesSent)/1024, float64(rep.BytesReceived)/1024, rep.CachedResponses)
	if rep.Errors > 0 {
		os.Exit(1)
	}
	if *minCacheHits >= 0 && rep.CacheHits < *minCacheHits {
		log.Fatalf("server reports %d result-cache hits, want >= %d (is the server running with -cache-entries?)",
			rep.CacheHits, *minCacheHits)
	}
}

// encodeBody marshals one request onto the chosen wire, optionally
// gzip-compressed, exactly as issue() will ship it. The binary encoding
// carries only shape/scalars/operands; ID, class and deadline ride as
// X-Srumma-* headers set at send time.
func encodeBody(req *server.MultiplyRequest, wire string, gz bool) ([]byte, error) {
	var raw []byte
	var err error
	if wire == "binary" {
		raw, err = server.EncodeBinaryRequest(req)
	} else {
		raw, err = json.Marshal(req)
	}
	if err != nil || !gz {
		return raw, err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw)
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildItems pre-generates one template per (mix entry, class slot,
// operand variant): the request body bytes and the serial-kernel
// reference result. Bodies are marshaled once so the request loop
// allocates nothing per request. With no class pattern each row has a
// single untagged entry per variant; variants > 1 cycles distinct
// operand sets through the same shape so a server-side result cache sees
// a mix of repeats and fresh content.
func buildItems(shapes []shape, pattern []classAssign, seed uint64, variants int, wire string, gz bool) [][]workItem {
	slots := pattern
	if len(slots) == 0 {
		slots = []classAssign{{}}
	}
	if variants < 1 {
		variants = 1
	}
	items := make([][]workItem, len(shapes))
	for i, sh := range shapes {
		items[i] = make([]workItem, 0, len(slots)*variants)
		for v := 0; v < variants; v++ {
			vseed := seed + uint64(3*i) + uint64(v)*1_000_003
			a := mat.Random(sh.m, sh.k, vseed)
			b := mat.Random(sh.k, sh.n, vseed+1)
			want := mat.New(sh.m, sh.n)
			if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
				log.Fatal(err)
			}
			// One digest cell per operand set: every response to this
			// content must report the same result digest.
			cell := &digestCell{}
			for _, slot := range slots {
				req := server.MultiplyRequest{
					ID:    fmt.Sprintf("load-%s", sh),
					ARows: sh.m, ACols: sh.k, A: a.Data,
					BRows: sh.k, BCols: sh.n, B: b.Data,
					Class:          slot.name,
					DeadlineMillis: slot.deadlineMs,
				}
				if slot.name != "" {
					req.ID = fmt.Sprintf("load-%s-%s", sh, slot.name)
				}
				body, err := encodeBody(&req, wire, gz)
				if err != nil {
					log.Fatal(err)
				}
				items[i] = append(items[i], workItem{
					mix: i, class: slot.name, body: body, want: want,
					id: req.ID, deadlineMs: slot.deadlineMs, wire: wire, gzip: gz, dig: cell,
				})
			}
		}
	}
	return items
}

// drive issues requests through a worker pool and returns the outcomes
// plus the wall time of the whole run.
func drive(addr string, pick func(int) workItem, requests, concurrency int, verify bool, tol float64, maxRetries int) ([]outcome, float64) {
	jobs := make(chan int)
	results := make([]outcome, requests)
	var wg sync.WaitGroup
	client := &http.Client{}
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx] = issue(client, addr, pick(idx), verify, tol, maxRetries)
			}
		}()
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, time.Since(start).Seconds()
}

func waitHealthy(addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s not healthy after %s: %v", addr, wait, err)
			}
			return fmt.Errorf("server at %s not healthy after %s", addr, wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// newWireRequest builds one HTTP request for it, setting the wire's
// content type and, on the binary wire, the X-Srumma-* scalar headers
// that have no binary body field.
func newWireRequest(addr string, it workItem) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, addr+"/v1/multiply", bytes.NewReader(it.body))
	if err != nil {
		return nil, err
	}
	if it.wire == "binary" {
		req.Header.Set("Content-Type", server.ContentTypeBinary)
		req.Header.Set("Accept", server.ContentTypeBinaryResult)
		if it.id != "" {
			req.Header.Set("X-Srumma-Id", it.id)
		}
		if it.class != "" {
			req.Header.Set("X-Srumma-Class", it.class)
		}
		if it.deadlineMs > 0 {
			req.Header.Set("X-Srumma-Deadline-Ms", strconv.FormatInt(it.deadlineMs, 10))
		}
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if it.gzip {
		req.Header.Set("Content-Encoding", "gzip")
		if it.wire == "binary" {
			req.Header.Set("Accept-Encoding", "gzip")
		}
	}
	return req, nil
}

// issue posts one request, retrying on 429 backpressure (honoring
// Retry-After but capping the pause so load tests finish promptly). A 504
// is a deadline miss — an expected outcome under overload, reported
// separately from errors.
func issue(client *http.Client, addr string, it workItem, verify bool, tol float64, maxRetries int) outcome {
	o := outcome{mix: it.mix, class: it.class, bytesOut: int64(len(it.body))}
	start := time.Now()
	for {
		hreq, err := newWireRequest(addr, it)
		if err != nil {
			o.err = err
			return o
		}
		resp, err := client.Do(hreq)
		if err != nil {
			o.err = err
			return o
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			pause := 10 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				pause = time.Duration(math.Min(float64(ra)*float64(time.Second), float64(250*time.Millisecond)))
			}
			resp.Body.Close()
			o.retries++
			if o.retries > maxRetries {
				o.err = fmt.Errorf("gave up after %d 429 rounds", maxRetries)
				return o
			}
			time.Sleep(pause)
			continue
		}
		if resp.StatusCode == http.StatusGatewayTimeout {
			resp.Body.Close()
			o.missed = true
			return o
		}
		cr := &byteCounter{r: resp.Body}
		if resp.StatusCode != http.StatusOK {
			var eresp struct {
				Error string `json:"error"`
			}
			json.NewDecoder(cr).Decode(&eresp)
			resp.Body.Close()
			o.err = fmt.Errorf("status %d: %s", resp.StatusCode, eresp.Error)
			return o
		}
		if !verify {
			// Latency-only mode: decoding a big result matrix costs real
			// CPU that would perturb the measurement on small machines.
			io.Copy(io.Discard, cr)
			resp.Body.Close()
			o.latency = time.Since(start).Seconds()
			o.bytesIn = cr.n
			o.cached = resp.Header.Get("X-Srumma-Cached") == "1"
			return o
		}

		var got *mat.Matrix
		if strings.HasPrefix(resp.Header.Get("Content-Type"), server.ContentTypeBinaryResult) {
			var body io.Reader = cr
			if resp.Header.Get("Content-Encoding") == "gzip" {
				gz, err := gzip.NewReader(cr)
				if err != nil {
					resp.Body.Close()
					o.err = err
					return o
				}
				body = gz
			}
			rows, cols, data, decErr := server.DecodeBinaryResponse(body)
			resp.Body.Close()
			if decErr != nil {
				o.err = decErr
				return o
			}
			got = &mat.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: data}
			o.route = resp.Header.Get("X-Srumma-Route")
			o.gflops, _ = strconv.ParseFloat(resp.Header.Get("X-Srumma-Gflops"), 64)
			o.cached = resp.Header.Get("X-Srumma-Cached") == "1"
			if err := it.dig.check(resp.Header.Get("X-Srumma-Digest")); err != nil {
				o.err = err
				return o
			}
		} else {
			var mresp server.MultiplyResponse
			decErr := json.NewDecoder(cr).Decode(&mresp)
			resp.Body.Close()
			if decErr != nil {
				o.err = decErr
				return o
			}
			got = &mat.Matrix{Rows: mresp.Rows, Cols: mresp.Cols, Stride: mresp.Cols, Data: mresp.C}
			o.route = mresp.Route
			o.gflops = mresp.GFlops
			o.cached = mresp.Cached
			if err := it.dig.check(mresp.Digest); err != nil {
				o.err = err
				return o
			}
		}
		o.latency = time.Since(start).Seconds()
		o.bytesIn = cr.n
		if got.Rows != it.want.Rows || got.Cols != it.want.Cols {
			o.err = fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, it.want.Rows, it.want.Cols)
			return o
		}
		if diff := mat.MaxAbsDiff(got, it.want); diff > tol {
			o.err = fmt.Errorf("result mismatch vs serial kernel: max abs diff %g > %g", diff, tol)
			return o
		}
		return o
	}
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func buildReport(addr string, concurrency, requests int, mixSpec string, shapes []shape, results []outcome, wall float64) *Report {
	rep := &Report{Addr: addr, Concurrency: concurrency, Requests: requests, Mix: mixSpec, WallSeconds: wall}
	var all []float64
	perMix := make([][]float64, len(shapes))
	gflops := make([]float64, len(shapes))
	routes := make([]string, len(shapes))
	counts := make([]int, len(shapes))
	for _, r := range results {
		rep.Retries429 += r.retries
		rep.BytesSent += r.bytesOut
		rep.BytesReceived += r.bytesIn
		if r.missed {
			rep.DeadlineMisses++
			continue
		}
		if r.err != nil {
			rep.Errors++
			continue
		}
		rep.OK++
		if r.cached {
			rep.CachedResponses++
		}
		all = append(all, r.latency)
		perMix[r.mix] = append(perMix[r.mix], r.latency)
		gflops[r.mix] += r.gflops
		routes[r.mix] = r.route
		counts[r.mix]++
	}
	sort.Float64s(all)
	rep.P50Ms = percentile(all, 0.50) * 1e3
	rep.P90Ms = percentile(all, 0.90) * 1e3
	rep.P99Ms = percentile(all, 0.99) * 1e3
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.OK) / wall
	}
	for i, sh := range shapes {
		lat := perMix[i]
		sort.Float64s(lat)
		var sum float64
		for _, v := range lat {
			sum += v
		}
		mr := MixReport{Shape: sh.String(), Route: routes[i], Count: counts[i],
			P50Ms: percentile(lat, 0.50) * 1e3, P99Ms: percentile(lat, 0.99) * 1e3}
		if counts[i] > 0 {
			mr.MeanMs = sum / float64(counts[i]) * 1e3
			mr.ServerGFlops = gflops[i] / float64(counts[i])
		}
		rep.Mixes = append(rep.Mixes, mr)
	}
	return rep
}

// classStats aggregates latency quantiles per workload class.
func classStats(results []outcome) map[string]ClassReport {
	lat := map[string][]float64{}
	misses := map[string]int{}
	for _, r := range results {
		name := r.class
		if name == "" {
			name = sched.ClassInteractive.String()
		}
		if r.missed {
			misses[name]++
			continue
		}
		if r.err == nil {
			lat[name] = append(lat[name], r.latency)
		}
	}
	out := make(map[string]ClassReport, len(lat))
	for name, ls := range lat {
		sort.Float64s(ls)
		var sum float64
		for _, v := range ls {
			sum += v
		}
		cr := ClassReport{
			Count:          len(ls),
			P50Ms:          percentile(ls, 0.50) * 1e3,
			P99Ms:          percentile(ls, 0.99) * 1e3,
			DeadlineMisses: misses[name],
		}
		if len(ls) > 0 {
			cr.MeanMs = sum / float64(len(ls)) * 1e3
		}
		out[name] = cr
	}
	for name, n := range misses {
		if _, ok := out[name]; !ok {
			out[name] = ClassReport{DeadlineMisses: n}
		}
	}
	return out
}

func fetchMetrics(addr string) *server.MetricsSnapshot {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap server.MetricsSnapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return nil
	}
	return &snap
}

func writeJSONFile(v any, path string) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
	if path == "-" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

func writeReport(rep *Report, path string) { writeJSONFile(rep, path) }

// ---------------------------------------------------------------------------
// Self-contained scheduler benchmark (-bench-sched): BENCH_sched.json.

const (
	benchNProcs     = 4
	benchBatchTasks = 96 // >= 64 queued small GEMMs per arm
	benchBatchDim   = 64
	benchBatchMax   = 64

	mixedRequests    = 64
	mixedConcurrency = 16
)

// BatchArmReport is one arm of the batch-coalescing benchmark.
type BatchArmReport struct {
	BatchMax       int     `json:"batch_max"`
	WallSeconds    float64 `json:"wall_s"`
	TasksPerSecond float64 `json:"tasks_per_s"`
	Dispatches     uint64  `json:"dispatches"`
	BatchOccupancy float64 `json:"batch_occupancy"`
	MaxBatch       int64   `json:"max_batch"`
}

// BatchBenchReport compares batched against per-request dispatch for a
// backlog of queued small GEMMs on one engine team. Three arms:
//
//   - batched: the scheduler coalesces the backlog into team jobs
//     (BatchMax 64) executed as a locality-ordered task list;
//   - coalesce_off: the same scheduler with BatchMax 1, isolating the
//     team wake/barrier amortization alone;
//   - per_request_engine: the PR 3 dispatch baseline — every GEMM is its
//     own engine team job (distribute, SRUMMA multiply, gather), FIFO.
type BatchBenchReport struct {
	Tasks       int            `json:"tasks"`
	Shape       string         `json:"shape"`
	Batched     BatchArmReport `json:"batched"`
	CoalesceOff BatchArmReport `json:"coalesce_off"`
	PerRequest  BatchArmReport `json:"per_request_engine"`
	// SpeedupX is batched throughput over per-request engine dispatch.
	SpeedupX float64 `json:"speedup_x"`
	// CoalesceSpeedupX is batched throughput over BatchMax-1 dispatch.
	CoalesceSpeedupX float64 `json:"coalesce_speedup_x"`
	BitIdentical     bool    `json:"bit_identical"`
}

// MixedModeReport is the server's view of the mixed-class load.
type MixedModeReport struct {
	WallSeconds   float64                 `json:"wall_s"`
	ThroughputRPS float64                 `json:"throughput_rps"`
	Classes       map[string]ClassReport  `json:"classes"`
	ServerMetrics *server.MetricsSnapshot `json:"server_metrics,omitempty"`
}

// MixedBenchReport records per-class latency of a batch-heavy
// interactive/batch request stream under the workload scheduler. (The
// committed BENCH_sched.json also carries the first-come-first-served arm
// the scheduler was measured against before that path was deleted.)
type MixedBenchReport struct {
	Requests         int             `json:"requests"`
	Concurrency      int             `json:"concurrency"`
	Classes          string          `json:"classes"`
	InteractiveShape string          `json:"interactive_shape"`
	BatchShape       string          `json:"batch_shape"`
	Sched            MixedModeReport `json:"sched"`
}

// SchedBenchReport is the BENCH_sched.json document.
type SchedBenchReport struct {
	NProcs int              `json:"nprocs"`
	Batch  BatchBenchReport `json:"batch"`
	Mixed  MixedBenchReport `json:"mixed"`
}

func runBenchSched(out string, seed uint64) {
	rep := SchedBenchReport{NProcs: benchNProcs}
	rep.Batch = runBatchBench(seed)
	rep.Mixed = runMixedBench(seed)
	writeJSONFile(&rep, out)
	fmt.Printf("batch: %.0f tasks/s batched vs %.0f tasks/s per-request engine (%.2fx; %.2fx vs coalesce-off; bit-identical %v)\n",
		rep.Batch.Batched.TasksPerSecond, rep.Batch.PerRequest.TasksPerSecond,
		rep.Batch.SpeedupX, rep.Batch.CoalesceSpeedupX, rep.Batch.BitIdentical)
	fmt.Printf("mixed: interactive p99 %.1f ms, batch p99 %.1f ms\n",
		rep.Mixed.Sched.Classes["interactive"].P99Ms, rep.Mixed.Sched.Classes["batch"].P99Ms)
	if !rep.Batch.BitIdentical {
		log.Fatal("batched results are NOT bit-identical to serial")
	}
}

// benchTeam adapts a persistent engine team to sched.Worker for the
// benchmark's own executor.
type benchTeam struct{ tm *armci.Team }

func (w *benchTeam) Close() error { return w.tm.Close() }

// benchJob is one small GEMM flowing through the scheduler directly —
// the engine-agnostic path, no HTTP/JSON in the way.
type benchJob struct {
	a, b *mat.Matrix
	got  *mat.Matrix
}

// runBatchBench measures batch coalescing: a backlog of benchBatchTasks
// small GEMMs is parked behind a gate task on a single-team scheduler,
// released at once, and timed to completion — once with coalescing
// (BatchMax 64: one team wake serves the whole backlog, ranks pulling
// tasks off a shared counter) and once with per-request dispatch
// (BatchMax 1: one wake + barrier per GEMM).
func runBatchBench(seed uint64) BatchBenchReport {
	dim := benchBatchDim
	n := benchBatchTasks
	as := make([]*mat.Matrix, n)
	bs := make([]*mat.Matrix, n)
	wants := make([]*mat.Matrix, n)
	for i := 0; i < n; i++ {
		as[i] = mat.Random(dim, dim, seed+uint64(2*i))
		bs[i] = mat.Random(dim, dim, seed+uint64(2*i)+1)
		wants[i] = mat.New(dim, dim)
		if err := mat.Gemm(false, false, 1, as[i], bs[i], 0, wants[i]); err != nil {
			log.Fatal(err)
		}
	}
	topo := rt.Topology{NProcs: benchNProcs, ProcsPerNode: benchNProcs, DomainSpansMachine: true}
	if err := topo.Validate(); err != nil {
		log.Fatal(err)
	}

	rep := BatchBenchReport{
		Tasks:        n,
		Shape:        shape{dim, dim, dim}.String(),
		BitIdentical: true,
	}
	for _, arm := range []struct {
		batchMax int
		dst      *BatchArmReport
	}{{benchBatchMax, &rep.Batched}, {1, &rep.CoalesceOff}} {
		res, got, err := runBatchArm(topo, as, bs, dim, arm.batchMax)
		if err != nil {
			log.Fatalf("batch bench (BatchMax %d): %v", arm.batchMax, err)
		}
		*arm.dst = res
		for i := range got {
			if got[i] == nil || mat.MaxAbsDiff(got[i], wants[i]) != 0 {
				rep.BitIdentical = false
			}
		}
	}
	res, got, err := runEngineArm(topo, as, bs, dim)
	if err != nil {
		log.Fatalf("batch bench (per-request engine): %v", err)
	}
	rep.PerRequest = res
	for i := range got {
		if got[i] == nil || mat.MaxAbsDiff(got[i], wants[i]) > 1e-9 {
			log.Fatalf("per-request engine result %d diverges from serial", i)
		}
	}
	if rep.PerRequest.TasksPerSecond > 0 {
		rep.SpeedupX = rep.Batched.TasksPerSecond / rep.PerRequest.TasksPerSecond
	}
	if rep.CoalesceOff.TasksPerSecond > 0 {
		rep.CoalesceSpeedupX = rep.Batched.TasksPerSecond / rep.CoalesceOff.TasksPerSecond
	}
	return rep
}

// runEngineArm times the PR 3 baseline: each GEMM dispatched as its own
// engine team job — bind the operands and the result as the team's
// distributed Globals, run the full SRUMMA multiply — serialized FIFO on
// one team, exactly how the pre-scheduler serving layer drives every
// engine-routed request.
func runEngineArm(topo rt.Topology, as, bs []*mat.Matrix, dim int) (BatchArmReport, []*mat.Matrix, error) {
	var arm BatchArmReport
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		return arm, nil, err
	}
	tm, err := armci.NewTeam(topo)
	if err != nil {
		return arm, nil, err
	}
	defer tm.Close()
	d := core.Dims{M: dim, N: dim, K: dim}
	da, db, dc := core.Dists(g, d, core.NN)
	one := func(a, b *mat.Matrix) (*mat.Matrix, error) {
		errs := make([]error, topo.NProcs)
		out := mat.New(d.M, d.N)
		_, runErr := tm.Run(func(c rt.Ctx) {
			ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
			errs[c.Rank()] = core.MultiplyEx(c, g, d, core.Options{}, 1, 0, ga, gb, gc)
		})
		if runErr != nil {
			return nil, runErr
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}
	// Warm the engine scratch pools before timing, as a running server
	// would be.
	if _, err := one(as[0], bs[0]); err != nil {
		return arm, nil, err
	}
	got := make([]*mat.Matrix, len(as))
	t0 := time.Now()
	for i := range as {
		got[i], err = one(as[i], bs[i])
		if err != nil {
			return arm, nil, err
		}
	}
	wall := time.Since(t0).Seconds()
	arm = BatchArmReport{
		BatchMax:       1,
		WallSeconds:    wall,
		TasksPerSecond: float64(len(as)) / wall,
		Dispatches:     uint64(len(as)),
		BatchOccupancy: 1,
		MaxBatch:       1,
	}
	return arm, got, nil
}

// runBatchArm runs one backlog through a fresh single-team scheduler at
// the given BatchMax and returns the timing plus every result matrix.
func runBatchArm(topo rt.Topology, as, bs []*mat.Matrix, dim, batchMax int) (BatchArmReport, []*mat.Matrix, error) {
	var arm BatchArmReport
	threads := armci.DefaultKernelThreads(topo.NProcs)
	exec := func(w sched.Worker, tasks []*sched.Task) sched.Outcome {
		if gate, ok := tasks[0].Payload.(chan struct{}); ok {
			<-gate
			tasks[0].Finish(nil)
			return sched.Outcome{}
		}
		tm := w.(*benchTeam).tm
		var next atomic.Int64
		n := len(tasks)
		_, runErr := tm.Run(func(rt.Ctx) {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t := tasks[i]
				j := t.Payload.(*benchJob)
				got := mat.New(j.a.Rows, j.b.Cols)
				err := mat.GemmParallel(threads, false, false, 1, j.a, j.b, 0, got)
				j.got = got
				t.Finish(err)
			}
		})
		if runErr != nil {
			for _, t := range tasks {
				if !t.Finished() {
					t.Finish(runErr)
				}
			}
		}
		return sched.Outcome{Err: runErr}
	}
	sch, err := sched.New(sched.Config{
		MinWorkers: 1,
		MaxWorkers: 1,
		QueueCap:   len(as) + 8,
		BatchMax:   batchMax,
		NewWorker: func() (sched.Worker, error) {
			tm, err := armci.NewTeam(topo)
			if err != nil {
				return nil, err
			}
			return &benchTeam{tm: tm}, nil
		},
		Exec: exec,
	})
	if err != nil {
		return arm, nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sch.Close(ctx)
	}()

	// Warm the team, scratch pools and kernel before timing, as a running
	// server would be.
	warm := make([]*sched.Task, 4)
	for i := range warm {
		warm[i] = &sched.Task{
			Class:     sched.ClassBatch,
			Batchable: true,
			Payload:   &benchJob{a: as[0], b: bs[0]},
		}
		if err := sch.Submit(warm[i]); err != nil {
			return arm, nil, err
		}
	}
	for _, t := range warm {
		<-t.Done()
	}
	snap0 := sch.Snapshot()
	for end := time.Now().Add(time.Second); snap0.DispatchedTasks < uint64(len(warm)) && time.Now().Before(end); {
		time.Sleep(100 * time.Microsecond)
		snap0 = sch.Snapshot()
	}

	// The gate is non-batchable and submitted first, so it is the first
	// dispatch; the whole backlog queues while the worker blocks on it.
	gateCh := make(chan struct{})
	if err := sch.Submit(&sched.Task{Class: sched.ClassInteractive, Payload: gateCh}); err != nil {
		return arm, nil, err
	}
	lk := uint64(dim)<<42 | uint64(dim)<<22 | uint64(dim)<<2
	tasks := make([]*sched.Task, len(as))
	jobs := make([]*benchJob, len(as))
	for i := range as {
		jobs[i] = &benchJob{a: as[i], b: bs[i]}
		tasks[i] = &sched.Task{
			Class:     sched.ClassBatch,
			Cost:      2 * float64(dim) * float64(dim) * float64(dim),
			Batchable: true,
			LocKey:    lk,
			Payload:   jobs[i],
		}
		if err := sch.Submit(tasks[i]); err != nil {
			return arm, nil, err
		}
	}

	t0 := time.Now()
	close(gateCh)
	for _, t := range tasks {
		<-t.Done()
		if err := t.Err(); err != nil {
			return arm, nil, err
		}
	}
	wall := time.Since(t0).Seconds()

	// Dispatch counters are bumped after an exec returns, so the final
	// dispatch may still be settling when the last Done fires; wait for
	// the ledger to catch up before reading it.
	snap := sch.Snapshot()
	for end := time.Now().Add(time.Second); snap.DispatchedTasks < snap0.DispatchedTasks+uint64(len(as))+1 && time.Now().Before(end); {
		time.Sleep(100 * time.Microsecond)
		snap = sch.Snapshot()
	}
	arm = BatchArmReport{
		BatchMax:       batchMax,
		WallSeconds:    wall,
		TasksPerSecond: float64(len(as)) / wall,
		// Exclude the warmup round and the gate dispatch from the ledger.
		Dispatches: snap.Dispatches - snap0.Dispatches - 1,
		MaxBatch:   snap.MaxBatch,
	}
	if arm.Dispatches > 0 {
		arm.BatchOccupancy = float64(snap.DispatchedTasks-snap0.DispatchedTasks-1) / float64(arm.Dispatches)
	}
	got := make([]*mat.Matrix, len(jobs))
	for i, j := range jobs {
		got[i] = j.got
	}
	return arm, got, nil
}

// runMixedBench drives an interactive/batch request stream through the
// full HTTP server and records per-class latency. Both shapes route to the
// distributed engine, so what separates the classes is pure queue policy:
// an interactive request is dispatched by class weight and deadline
// instead of waiting behind every queued batch job.
func runMixedBench(seed uint64) MixedBenchReport {
	// Batch-heavy mix: sparse latency-sensitive queries competing with a
	// stream of bulk jobs — the workload where arrival-order dispatch hurts
	// interactive p99 most.
	interactive := shape{192, 192, 192}
	batch := shape{384, 384, 384}
	spec := "interactive:1,batch:3"
	pattern, err := parseClasses(spec, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	rep := MixedBenchReport{
		Requests:         mixedRequests,
		Concurrency:      mixedConcurrency,
		Classes:          spec,
		InteractiveShape: interactive.String(),
		BatchShape:       batch.String(),
	}
	rep.Sched = runMixedLoad(interactive, batch, pattern, seed)
	return rep
}

func runMixedLoad(interactive, batch shape, pattern []classAssign, seed uint64) MixedModeReport {
	s, err := server.New(server.Config{
		NProcs:         benchNProcs,
		Teams:          1,
		QueueCap:       64,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatalf("mixed bench: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One template per class, shape tied to class: interactive requests
	// are the small latency-sensitive products, batch requests the heavy
	// throughput jobs they compete with.
	byClass := map[string]workItem{}
	for i, sh := range []shape{interactive, batch} {
		name := []string{"interactive", "batch"}[i]
		a := mat.Random(sh.m, sh.k, seed+uint64(10+2*i))
		b := mat.Random(sh.k, sh.n, seed+uint64(10+2*i)+1)
		want := mat.New(sh.m, sh.n)
		if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
			log.Fatal(err)
		}
		var deadlineMs int64
		for _, slot := range pattern {
			if slot.name == name {
				deadlineMs = slot.deadlineMs
			}
		}
		req := server.MultiplyRequest{
			ID:    fmt.Sprintf("bench-%s", name),
			ARows: sh.m, ACols: sh.k, A: a.Data,
			BRows: sh.k, BCols: sh.n, B: b.Data,
			Class:          name,
			DeadlineMillis: deadlineMs,
		}
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		byClass[name] = workItem{mix: i, class: name, body: body, want: want}
	}
	pick := func(idx int) workItem {
		return byClass[pattern[idx%len(pattern)].name]
	}

	// Latency-only: correctness of the serving path is covered by the
	// package tests and the verified batch arms above; decoding 384^3
	// results in the client would steal CPU from the server under test.
	results, wall := drive(ts.URL, pick, mixedRequests, mixedConcurrency, false, 1e-9, 1000)
	for _, r := range results {
		if r.err != nil {
			log.Fatalf("mixed bench: %v", r.err)
		}
	}

	rep := MixedModeReport{WallSeconds: wall, Classes: classStats(results)}
	if wall > 0 {
		ok := 0
		for _, r := range results {
			if r.err == nil && !r.missed {
				ok++
			}
		}
		rep.ThroughputRPS = float64(ok) / wall
	}
	snap := s.Metrics()
	rep.ServerMetrics = &snap

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatalf("mixed bench shutdown: %v", err)
	}
	return rep
}

// ---------------------------------------------------------------------------
// Self-contained crash-recovery benchmark (-chaos): BENCH_recover.json.

const (
	recoverProcs   = 4
	recoverPPN     = 2
	recoverDim     = 192
	recoverTaskK   = 8
	recoverSpan    = 6
	recoverTimeout = 60 * time.Second
)

// ChaosArmReport is one recovery strategy applied to the same planted
// crash: the failed first attempt plus the retry that completes the job.
type ChaosArmReport struct {
	// ReexecutedTasks is how many SRUMMA tasks the retry had to run:
	// tasks_total minus what the ledger carried over.
	ReexecutedTasks int `json:"reexecuted_tasks"`
	// ResumedTasks is completed work the retry inherited from the ledger
	// (zero for the restart arm by construction).
	ResumedTasks  int     `json:"resumed_tasks"`
	SalvagedRanks int     `json:"salvaged_ranks"`
	CrashWallS    float64 `json:"crash_wall_s"`
	RetryWallS    float64 `json:"retry_wall_s"`
}

// ChaosBenchReport is the BENCH_recover.json document: one seeded
// mid-compute crash handled two ways — ledger resume over salvaged C
// segments versus a from-scratch restart — with the recovered products
// checked bit-identical to a fault-free run of the same engine config.
type ChaosBenchReport struct {
	NProcs     int    `json:"nprocs"`
	Shape      string `json:"shape"`
	MaxTaskK   int    `json:"max_task_k"`
	Seed       uint64 `json:"seed"`
	CrashRank  int    `json:"crash_rank"`
	CrashOp    int    `json:"crash_op"`
	TasksTotal int    `json:"tasks_total"`

	Resumed ChaosArmReport `json:"resumed"`
	Restart ChaosArmReport `json:"restart"`
	// TaskSavingsX is restart re-execution over resumed re-execution: how
	// much completed work the ledger+salvage path preserved.
	TaskSavingsX float64 `json:"task_savings_x"`
	BitIdentical bool    `json:"bit_identical"`
}

// chaosAttempt runs one SRUMMA attempt into out, optionally under the
// shared fault injector (nil for the fault-free reference run). The ranks
// compute in place in out (driver.Bind adopts it), so what a failed attempt
// completed is simply still there for the retry, next to the ledger marks
// that say what it is: the salvage is the result matrix itself.
func chaosAttempt(topo rt.Topology, g *grid.Grid, d core.Dims, opts core.Options, sh *faults.Shared, a, b, out *mat.Matrix) error {
	da, db, dc := core.Dists(g, d, opts.Case)
	errs := make([]error, topo.NProcs)
	_, err := armci.RunWithTimeout(topo, recoverTimeout, func(raw rt.Ctx) {
		c := raw
		if sh != nil {
			c = faults.Resilient(sh.Wrap(raw), faults.RecoveryConfig{})
		}
		ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
		errs[c.Rank()] = core.MultiplyEx(c, g, d, opts, 1, 0, ga, gb, gc)
	})
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runChaosArm executes the crash-then-retry experiment with one recovery
// strategy. Both arms share the fault schedule (same seed, fresh latch):
// attempt 1 always dies at the planted (rank, op); the resume arm then
// retries over the partial result with every rank's ledger, while the
// restart arm forgets everything the first attempt did.
func runChaosArm(resume bool, topo rt.Topology, g *grid.Grid, d core.Dims, cfg faults.Config, a, b *mat.Matrix) (ChaosArmReport, *mat.Matrix, int, error) {
	var rep ChaosArmReport
	plan, err := faults.NewPlan(cfg, topo.NProcs)
	if err != nil {
		return rep, nil, 0, err
	}
	sh := faults.NewShared(plan)
	jl := core.NewJobLedger(topo.NProcs)
	opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: recoverTaskK, Ledger: jl}
	got := mat.New(d.M, d.N)

	t0 := time.Now()
	if err := chaosAttempt(topo, g, d, opts, sh, a, b, got); err == nil {
		return rep, nil, 0, fmt.Errorf("planted compute crash did not fire")
	}
	rep.CrashWallS = time.Since(t0).Seconds()

	if resume {
		rep.SalvagedRanks = topo.NProcs // every rank's partial block is where it was
	} else {
		for r := 0; r < topo.NProcs; r++ {
			jl.Reset(r)
		}
	}
	rep.ResumedTasks = jl.Completed()
	total := jl.Total()
	rep.ReexecutedTasks = total - rep.ResumedTasks

	t1 := time.Now()
	if err := chaosAttempt(topo, g, d, opts, sh, a, b, got); err != nil {
		return rep, nil, 0, fmt.Errorf("retry failed: %w", err)
	}
	rep.RetryWallS = time.Since(t1).Seconds()
	return rep, got, total, nil
}

// runBenchChaos measures what ledger-based resume buys over a full restart
// for one crashed job: the same seeded mid-compute crash is recovered both
// ways and the retry's re-executed task count compared. Correctness bar:
// both recovered products must be bit-identical to a fault-free run of the
// identical engine configuration (same grid, MaxTaskK, task order).
func runBenchChaos(out string, seed uint64) {
	topo := rt.Topology{NProcs: recoverProcs, ProcsPerNode: recoverPPN}
	if err := topo.Validate(); err != nil {
		log.Fatal(err)
	}
	g, err := grid.Square(recoverProcs)
	if err != nil {
		log.Fatal(err)
	}
	d := core.Dims{M: recoverDim, N: recoverDim, K: recoverDim}
	da, db, _ := core.Dists(g, d, core.NN)
	a := mat.Random(da.Rows, da.Cols, seed+100)
	b := mat.Random(db.Rows, db.Cols, seed+101)

	cfg := faults.Config{Seed: seed, ComputeCrash: true, ComputeCrashOpSpan: recoverSpan}
	plan, err := faults.NewPlan(cfg, recoverProcs)
	if err != nil {
		log.Fatal(err)
	}
	rep := ChaosBenchReport{
		NProcs:   recoverProcs,
		Shape:    shape{d.M, d.K, d.N}.String(),
		MaxTaskK: recoverTaskK,
		Seed:     seed,
	}
	rep.CrashRank, rep.CrashOp = plan.ComputeCrashPoint()

	cleanOpts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: recoverTaskK}
	clean := mat.New(d.M, d.N)
	if err := chaosAttempt(topo, g, d, cleanOpts, nil, a, b, clean); err != nil {
		log.Fatalf("fault-free reference run: %v", err)
	}
	want := mat.New(d.M, d.N)
	if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
		log.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(clean, want); diff > 1e-10*float64(d.K) {
		log.Fatalf("fault-free reference diverges from serial kernel: max diff %g", diff)
	}

	var resumedC, restartC *mat.Matrix
	rep.Resumed, resumedC, rep.TasksTotal, err = runChaosArm(true, topo, g, d, cfg, a, b)
	if err != nil {
		log.Fatalf("resumed arm: %v", err)
	}
	var restartTotal int
	rep.Restart, restartC, restartTotal, err = runChaosArm(false, topo, g, d, cfg, a, b)
	if err != nil {
		log.Fatalf("restart arm: %v", err)
	}
	if restartTotal != rep.TasksTotal {
		log.Fatalf("task plans differ between arms: %d vs %d", rep.TasksTotal, restartTotal)
	}
	if rep.Resumed.ReexecutedTasks > 0 {
		rep.TaskSavingsX = float64(rep.Restart.ReexecutedTasks) / float64(rep.Resumed.ReexecutedTasks)
	}
	rep.BitIdentical = true
	for i := range clean.Data {
		if resumedC.Data[i] != clean.Data[i] || restartC.Data[i] != clean.Data[i] {
			rep.BitIdentical = false
			break
		}
	}

	writeJSONFile(&rep, out)
	fmt.Printf("recover: crash at rank %d op %d; resumed retry re-executed %d/%d tasks (%d inherited, %d ranks salvaged) vs %d for full restart (%.2fx fewer; bit-identical %v)\n",
		rep.CrashRank, rep.CrashOp, rep.Resumed.ReexecutedTasks, rep.TasksTotal,
		rep.Resumed.ResumedTasks, rep.Resumed.SalvagedRanks,
		rep.Restart.ReexecutedTasks, rep.TaskSavingsX, rep.BitIdentical)
	if !rep.BitIdentical {
		log.Fatal("recovered products are NOT bit-identical to the fault-free run")
	}
	if rep.Resumed.ReexecutedTasks >= rep.Restart.ReexecutedTasks {
		log.Fatalf("resume re-executed %d tasks, not fewer than restart's %d: the ledger preserved nothing",
			rep.Resumed.ReexecutedTasks, rep.Restart.ReexecutedTasks)
	}
}

// ---------------------------------------------------------------------------
// Self-contained wire-format / cache benchmark (-bench-wire):
// BENCH_server.json.

const (
	wireBenchDim      = 256
	wireBenchRequests = 24
)

// WireArmReport is one arm of the wire benchmark: one wire format against
// one server configuration, identical operands throughout.
type WireArmReport struct {
	Wire          string  `json:"wire"`
	CacheEnabled  bool    `json:"cache_enabled"`
	Requests      int     `json:"requests"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	RequestBytes  int64   `json:"request_bytes"`
	ResponseBytes int64   `json:"response_bytes_mean"`
	CacheHitRate  float64 `json:"cache_hit_rate,omitempty"`
}

// WireBenchReport is the "wire" section of BENCH_server.json:
// the same GEMM served three ways — JSON wire, binary wire
// (cache off for both), and binary wire against a warm result cache —
// with client-observed latency quantiles, exact wire bytes, and the
// bit-identity of every response against the first computed result.
type WireBenchReport struct {
	Shape    string `json:"shape"`
	Requests int    `json:"requests_per_arm"`

	JSON   WireArmReport `json:"json"`
	Binary WireArmReport `json:"binary"`
	Cached WireArmReport `json:"cached"`

	// BinarySpeedupX is JSON p50 over binary p50 (cache off for both):
	// the float↔decimal-text cost eliminated by the dense format.
	BinarySpeedupX float64 `json:"binary_speedup_x"`
	// CachedSpeedupX is binary p50 over cached p50: the compute and
	// queueing eliminated by a content-address hit.
	CachedSpeedupX float64 `json:"cached_speedup_x"`
	// RequestBytesRatioX is the JSON request body size over the binary one.
	RequestBytesRatioX float64 `json:"request_bytes_ratio_x"`
	BitIdentical       bool    `json:"bit_identical"`
}

// postWire issues one request and returns the client-observed latency,
// the decoded result and the response metadata the wire benchmark needs.
func postWire(client *http.Client, addr string, it workItem) (lat float64, got []float64, respBytes int64, dig string, cached bool, err error) {
	hreq, err := newWireRequest(addr, it)
	if err != nil {
		return
	}
	t0 := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	cr := &byteCounter{r: resp.Body}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(cr)
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), server.ContentTypeBinaryResult) {
		_, _, got, err = server.DecodeBinaryResponse(cr)
		dig = resp.Header.Get("X-Srumma-Digest")
		cached = resp.Header.Get("X-Srumma-Cached") == "1"
	} else {
		var m server.MultiplyResponse
		if err = json.NewDecoder(cr).Decode(&m); err == nil {
			got, dig, cached = m.C, m.Digest, m.Cached
		}
	}
	lat = time.Since(t0).Seconds()
	respBytes = cr.n
	return
}

// runWireArm serves wireBenchRequests identical GEMMs from a fresh
// in-process server and times each round trip end to end. A warmup
// request (uncounted) heats the engine team, the scratch pools and — for
// the cached arm — the result cache, so the timed loop measures each
// path's steady state. Returns the arm report and whether every timed
// response was bit-identical to the warmup's result (the engine is
// deterministic, so recomputes must match, and a cache hit returns the
// warmup's computation by construction).
func runWireArm(wire string, cacheEntries int, it workItem, want *mat.Matrix, tol float64) (WireArmReport, bool) {
	s, err := server.New(server.Config{
		NProcs:         benchNProcs,
		Teams:          1,
		DefaultTimeout: 60 * time.Second,
		CacheEntries:   cacheEntries,
	})
	if err != nil {
		log.Fatalf("wire bench (%s): %v", wire, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}

	_, warm, _, _, _, err := postWire(client, ts.URL, it)
	if err != nil {
		log.Fatalf("wire bench (%s) warmup: %v", wire, err)
	}
	ref := &mat.Matrix{Rows: want.Rows, Cols: want.Cols, Stride: want.Cols, Data: warm}
	if diff := mat.MaxAbsDiff(ref, want); diff > tol {
		log.Fatalf("wire bench (%s): warmup result diverges from serial kernel by %g", wire, diff)
	}

	bit := true
	lats := make([]float64, 0, wireBenchRequests)
	var respBytes int64
	for i := 0; i < wireBenchRequests; i++ {
		lat, got, rb, _, cached, err := postWire(client, ts.URL, it)
		if err != nil {
			log.Fatalf("wire bench (%s) request %d: %v", wire, i, err)
		}
		if cacheEntries > 0 && !cached {
			log.Fatalf("wire bench (%s) request %d: expected a cache hit after warmup", wire, i)
		}
		if len(got) != len(warm) {
			bit = false
		} else {
			for j := range got {
				if got[j] != warm[j] {
					bit = false
					break
				}
			}
		}
		lats = append(lats, lat)
		respBytes += rb
	}
	sort.Float64s(lats)
	var sum float64
	for _, v := range lats {
		sum += v
	}
	arm := WireArmReport{
		Wire: wire, CacheEnabled: cacheEntries > 0, Requests: len(lats),
		P50Ms:         percentile(lats, 0.50) * 1e3,
		P99Ms:         percentile(lats, 0.99) * 1e3,
		MeanMs:        sum / float64(len(lats)) * 1e3,
		RequestBytes:  int64(len(it.body)),
		ResponseBytes: respBytes / int64(len(lats)),
	}
	if snap := s.Metrics(); snap.Cache != nil {
		arm.CacheHitRate = snap.Cache.HitRate
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatalf("wire bench (%s) shutdown: %v", wire, err)
	}
	return arm, bit
}

// runBenchWire measures what the binary wire and the content-addressed
// result cache buy on the serving hot path: one 256^3 GEMM served over
// the JSON wire, over the binary wire, and out of a warm result cache.
func runBenchWire(out string, seed uint64) {
	dim := wireBenchDim
	a := mat.Random(dim, dim, seed+200)
	b := mat.Random(dim, dim, seed+201)
	want := mat.New(dim, dim)
	if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
		log.Fatal(err)
	}
	req := server.MultiplyRequest{
		ID:    "bench-wire",
		ARows: dim, ACols: dim, A: a.Data,
		BRows: dim, BCols: dim, B: b.Data,
	}
	mk := func(wire string) workItem {
		body, err := encodeBody(&req, wire, false)
		if err != nil {
			log.Fatal(err)
		}
		return workItem{body: body, want: want, id: req.ID, wire: wire}
	}
	itJSON, itBin := mk("json"), mk("binary")
	tol := 1e-9 // engine vs serial: float-summation order only

	rep := WireBenchReport{
		Shape:        shape{dim, dim, dim}.String(),
		Requests:     wireBenchRequests,
		BitIdentical: true,
	}
	var bit bool
	rep.JSON, bit = runWireArm("json", 0, itJSON, want, tol)
	rep.BitIdentical = rep.BitIdentical && bit
	rep.Binary, bit = runWireArm("binary", 0, itBin, want, tol)
	rep.BitIdentical = rep.BitIdentical && bit
	rep.Cached, bit = runWireArm("binary", 64, itBin, want, tol)
	rep.BitIdentical = rep.BitIdentical && bit

	if p50 := rep.Binary.P50Ms; p50 > 0 {
		rep.BinarySpeedupX = rep.JSON.P50Ms / p50
	}
	if p50 := rep.Cached.P50Ms; p50 > 0 {
		rep.CachedSpeedupX = rep.Binary.P50Ms / p50
	}
	if rb := rep.Binary.RequestBytes; rb > 0 {
		rep.RequestBytesRatioX = float64(rep.JSON.RequestBytes) / float64(rb)
	}

	writeSection(out, "wire", &rep)
	fmt.Printf("wire: %s p50 %.1f ms (json) vs %.1f ms (binary, %.2fx) vs %.1f ms (cached, %.2fx more); request %.0f KB (json) vs %.0f KB (binary, %.2fx); bit-identical %v\n",
		rep.Shape, rep.JSON.P50Ms, rep.Binary.P50Ms, rep.BinarySpeedupX,
		rep.Cached.P50Ms, rep.CachedSpeedupX,
		float64(rep.JSON.RequestBytes)/1024, float64(rep.Binary.RequestBytes)/1024,
		rep.RequestBytesRatioX, rep.BitIdentical)
	if !rep.BitIdentical {
		log.Fatal("wire/cache responses are NOT bit-identical across arms")
	}
}
