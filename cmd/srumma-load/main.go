// Command srumma-load drives a running srumma-serve instance with a
// configurable concurrency level and shape mix, verifies every result
// against the serial kernel, honors 429 backpressure with Retry-After
// backoff, and emits a machine-readable report on stdout (or -out):
// throughput plus p50/p99 latency overall and per mix entry.
//
//	srumma-load -addr http://127.0.0.1:8711 -concurrency 8 -requests 64 \
//	    -mix 32x32x32,96x96x96,256x256x256 -out report.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"srumma/internal/mat"
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

// workItem is one pre-generated request with its serial reference result.
type workItem struct {
	mix  int
	body []byte // wire-encoded request body
	want *mat.Matrix

	id   string
	wire string // "json" or "binary"
	dig  *digestCell
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

// Report is the document one run writes to -out.
type Report struct {
	Addr           string `json:"addr"`
	Concurrency    int    `json:"concurrency"`
	Requests       int    `json:"requests"`
	Mix            string `json:"mix"`
	Wire           string `json:"wire"`
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

	Mixes []MixReport `json:"mixes"`

	ServerMetrics *server.MetricsSnapshot `json:"server_metrics,omitempty"`
}

// The flags live at package level so the README drift test can walk
// flag.CommandLine without running main.
var (
	flagAddr         = flag.String("addr", "http://127.0.0.1:8711", "server base URL")
	flagConcurrency  = flag.Int("concurrency", 8, "concurrent client workers")
	flagRequests     = flag.Int("requests", 64, "total requests to issue")
	flagMix          = flag.String("mix", "32x32x32,96x96x96,192x192x192", "comma-separated MxKxN shapes, cycled")
	flagVerify       = flag.Bool("verify", true, "check every result against the serial kernel")
	flagTol          = flag.Float64("tol", 1e-9, "max abs elementwise difference allowed under -verify")
	flagOut          = flag.String("out", "-", "report path ('-' for stdout)")
	flagWait         = flag.Duration("wait", 10*time.Second, "max time to wait for the server to report healthy")
	flagSeed         = flag.Uint64("seed", 1, "base seed for generated matrices")
	flagMaxRetries   = flag.Int("max-retries", 100, "429 retry rounds per request before giving up")
	flagWire         = flag.String("wire", "json", `request wire format: "json" or "binary"`)
	flagRepeatOps    = flag.Int("repeat-operands", 1, "distinct operand sets cycled per shape; with 1 (the default) every request for a shape repeats the same operands, so a server-side result cache hits on every revisit")
	flagMinCacheHits = flag.Int64("min-cache-hits", -1, "fail unless the server reports at least this many result-cache hits after the run (-1: no check)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srumma-load: ")
	flag.Parse()

	if *flagWire != "json" && *flagWire != "binary" {
		log.Fatalf("bad -wire %q (want json or binary)", *flagWire)
	}
	if *flagRepeatOps < 1 {
		log.Fatalf("bad -repeat-operands %d (want >= 1)", *flagRepeatOps)
	}

	shapes, err := parseMix(*flagMix)
	if err != nil {
		log.Fatal(err)
	}
	client := newClient(*flagConcurrency)
	if err := waitHealthy(client, *flagAddr, *flagWait); err != nil {
		log.Fatal(err)
	}

	items := buildItems(shapes, *flagSeed, *flagRepeatOps, *flagWire)
	pick := func(idx int) workItem {
		row := items[idx%len(items)]
		return row[idx%len(row)]
	}

	results, wall := drive(client, *flagAddr, pick, *flagRequests, *flagConcurrency, *flagVerify, *flagTol, *flagMaxRetries)

	rep := buildReport(*flagAddr, *flagConcurrency, *flagRequests, *flagMix, shapes, results, wall)
	rep.Wire = *flagWire
	rep.RepeatOperands = *flagRepeatOps
	rep.ServerMetrics = fetchMetrics(client, *flagAddr)
	if rep.ServerMetrics != nil && rep.ServerMetrics.Cache != nil {
		rep.CacheHits = rep.ServerMetrics.Cache.Hits
		rep.CacheHitRate = rep.ServerMetrics.Cache.HitRate
	}

	for _, r := range results {
		if r.err != nil {
			log.Printf("FAIL %s: %v", shapes[r.mix], r.err)
		}
	}
	writeReport(rep, *flagOut)
	// The summary goes to stderr: stdout is the JSON report and nothing else.
	log.Printf("%d ok, %d errors, %d deadline misses, %d retry rounds (429), %.2f req/s, p50 %.1f ms, p99 %.1f ms [%s wire, %.1f KB out, %.1f KB in, %d cached]",
		rep.OK, rep.Errors, rep.DeadlineMisses, rep.Retries429, rep.ThroughputRPS, rep.P50Ms, rep.P99Ms,
		rep.Wire, float64(rep.BytesSent)/1024, float64(rep.BytesReceived)/1024, rep.CachedResponses)
	if rep.Errors > 0 {
		os.Exit(1)
	}
	if *flagMinCacheHits >= 0 && rep.CacheHits < *flagMinCacheHits {
		log.Fatalf("server reports %d result-cache hits, want >= %d (is the server running with -cache-entries?)",
			rep.CacheHits, *flagMinCacheHits)
	}
}

// encodeBody marshals one request onto the chosen wire, exactly as issue()
// will ship it. The binary encoding carries only shape/scalars/operands;
// the ID rides as the X-Srumma-Id header set at send time.
func encodeBody(req *server.MultiplyRequest, wire string) ([]byte, error) {
	if wire == "binary" {
		return server.EncodeBinaryRequest(req)
	}
	return json.Marshal(req)
}

// buildItems pre-generates one template per (mix entry, operand variant):
// the request body bytes and the serial-kernel reference result. Bodies
// are marshaled once so the request loop allocates nothing per request;
// variants > 1 cycles distinct operand sets through the same shape so a
// server-side result cache sees a mix of repeats and fresh content.
func buildItems(shapes []shape, seed uint64, variants int, wire string) [][]workItem {
	items := make([][]workItem, len(shapes))
	for i, sh := range shapes {
		items[i] = make([]workItem, 0, variants)
		for v := 0; v < variants; v++ {
			vseed := seed + uint64(3*i) + uint64(v)*1_000_003
			a := mat.Random(sh.m, sh.k, vseed)
			b := mat.Random(sh.k, sh.n, vseed+1)
			want := mat.New(sh.m, sh.n)
			if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
				log.Fatal(err)
			}
			req := server.MultiplyRequest{
				ID:    fmt.Sprintf("load-%s", sh),
				ARows: sh.m, ACols: sh.k, A: a.Data,
				BRows: sh.k, BCols: sh.n, B: b.Data,
			}
			body, err := encodeBody(&req, wire)
			if err != nil {
				log.Fatal(err)
			}
			// One digest cell per operand set: every response to this
			// content must report the same result digest.
			items[i] = append(items[i], workItem{
				mix: i, body: body, want: want, id: req.ID, wire: wire, dig: &digestCell{},
			})
		}
	}
	return items
}

// clientTimeout bounds one HTTP exchange, body included. A server's own
// per-request deadline defaults to 30s, so an exchange still open after
// this is a wedged server; failing it lets serve-smoke fail inside CI's
// budget rather than hang it.
const clientTimeout = 60 * time.Second

// maxRetryPause caps the Retry-After a 429 asks for, so a load run
// finishes promptly whatever the server prices its backlog at.
const maxRetryPause = 250 * time.Millisecond

// newClient returns the one client a run uses: a connection per worker,
// kept alive between requests. net/http's default of 2 idle connections
// per host would make every worker past the second connect per request;
// the cap on open ones stops a worker that finds none idle while another's
// first dial is still in flight from opening a spare.
func newClient(concurrency int) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: concurrency, MaxIdleConnsPerHost: concurrency}
	return &http.Client{Transport: tr, Timeout: clientTimeout}
}

// drain reads what is left of a response body and closes it. A decoder
// stops at the end of its payload, not at EOF, and a body closed with its
// tail (a chunked response's terminator) unread costs the keep-alive
// connection.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // the response was already judged
	resp.Body.Close()
}

// drive issues requests through a worker pool and returns the outcomes
// plus the wall time of the whole run.
func drive(client *http.Client, addr string, pick func(int) workItem, requests, concurrency int, verify bool, tol float64, maxRetries int) ([]outcome, float64) {
	jobs := make(chan int)
	results := make([]outcome, requests)
	var wg sync.WaitGroup
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

func waitHealthy(client *http.Client, addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s: %w", addr, wait, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// newWireRequest builds one HTTP request for it, setting the wire's
// content type and, on the binary wire, the X-Srumma-Id header the binary
// body has no field for.
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
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// issue posts one request, retrying on 429 backpressure (honoring
// Retry-After but capping the pause so load tests finish promptly). A 504
// is a deadline miss — an expected outcome under overload, reported
// separately from errors.
func issue(client *http.Client, addr string, it workItem, verify bool, tol float64, maxRetries int) outcome {
	o := outcome{mix: it.mix, bytesOut: int64(len(it.body))}
	start := time.Now()
	for {
		pause, err := exchange(client, addr, it, verify, tol, start, &o)
		if pause == 0 {
			o.err = err
			return o
		}
		o.retries++
		if o.retries > maxRetries {
			o.err = fmt.Errorf("gave up after %d 429 rounds", maxRetries)
			return o
		}
		time.Sleep(pause)
	}
}

// exchange is one round trip of issue: it fills o from the response, or
// returns how long to pause before the next round when the server said 429.
// Whatever the branch, the body is drained before it is closed.
func exchange(client *http.Client, addr string, it workItem, verify bool, tol float64, start time.Time, o *outcome) (retryAfter time.Duration, err error) {
	hreq, err := newWireRequest(addr, it)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer drain(resp)

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			return min(time.Duration(ra)*time.Second, maxRetryPause), nil
		}
		return 10 * time.Millisecond, nil
	case http.StatusGatewayTimeout:
		o.missed = true
		return 0, nil
	default:
		var eresp server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&eresp)
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, eresp.Error)
	}

	cr := &byteCounter{r: resp.Body}
	if !verify {
		// Latency-only mode: decoding a big result matrix costs real
		// CPU that would perturb the measurement on small machines.
		io.Copy(io.Discard, cr)
		o.latency = time.Since(start).Seconds()
		o.bytesIn = cr.n
		o.cached = resp.Header.Get("X-Srumma-Cached") == "1"
		return 0, nil
	}

	var got *mat.Matrix
	var digest string
	if strings.HasPrefix(resp.Header.Get("Content-Type"), server.ContentTypeBinaryResult) {
		rows, cols, data, err := server.DecodeBinaryResponse(cr)
		if err != nil {
			return 0, err
		}
		got = &mat.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: data}
		o.route = resp.Header.Get("X-Srumma-Route")
		o.gflops, _ = strconv.ParseFloat(resp.Header.Get("X-Srumma-Gflops"), 64)
		o.cached = resp.Header.Get("X-Srumma-Cached") == "1"
		digest = resp.Header.Get("X-Srumma-Digest")
	} else {
		var mresp server.MultiplyResponse
		if err := json.NewDecoder(cr).Decode(&mresp); err != nil {
			return 0, err
		}
		got = &mat.Matrix{Rows: mresp.Rows, Cols: mresp.Cols, Stride: mresp.Cols, Data: mresp.C}
		o.route = mresp.Route
		o.gflops = mresp.GFlops
		o.cached = mresp.Cached
		digest = mresp.Digest
	}
	if err := it.dig.check(digest); err != nil {
		return 0, err
	}
	o.latency = time.Since(start).Seconds()
	o.bytesIn = cr.n
	if got.Rows != it.want.Rows || got.Cols != it.want.Cols {
		return 0, fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, it.want.Rows, it.want.Cols)
	}
	if diff := mat.MaxAbsDiff(got, it.want); diff > tol {
		return 0, fmt.Errorf("result mismatch vs serial kernel: max abs diff %g > %g", diff, tol)
	}
	return 0, nil
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
		mr := MixReport{Shape: sh.String(), Route: routes[i], Count: counts[i]}
		mr.P50Ms, mr.P99Ms, mr.MeanMs = summarize(perMix[i])
		if counts[i] > 0 {
			mr.ServerGFlops = gflops[i] / float64(counts[i])
		}
		rep.Mixes = append(rep.Mixes, mr)
	}
	return rep
}

// summarize sorts one group's latencies (seconds) and returns their p50,
// p99 and mean in milliseconds; zeros for an empty group.
func summarize(lat []float64) (p50, p99, mean float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	return percentile(lat, 0.50) * 1e3, percentile(lat, 0.99) * 1e3, sum / float64(len(lat)) * 1e3
}

func fetchMetrics(client *http.Client, addr string) *server.MetricsSnapshot {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil
	}
	defer drain(resp)
	var snap server.MetricsSnapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return nil
	}
	return &snap
}

func writeReport(rep *Report, path string) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
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
