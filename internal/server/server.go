// Package server is the GEMM-as-a-service layer: an HTTP front end that
// turns the SRUMMA engine from a one-shot library call into a long-running
// service. It combines
//
//   - a pool of persistent engine teams (armci.Team) whose rank goroutines
//     and scratch pools stay warm across requests;
//   - an admission-controlled run queue, served in arrival order, with
//     backpressure (the workload scheduler, internal/sched): a bounded
//     number of requests is admitted (queued + executing); overflow is
//     refused immediately with 429 and a Retry-After hint rather than
//     buffered without bound;
//   - size-based routing across execution tiers (cf. the hierarchical
//     platform argument of Quintin et al.): small products run directly on
//     the local packed parallel kernel, large ones on the distributed
//     SRUMMA engine — one job pipeline (distributed.go) whether its ranks
//     are an in-process team or a cluster node's worker processes;
//   - per-request deadlines enforced as cooperative cancellation between
//     SRUMMA tasks (core.Options.Cancel), so an expired request releases
//     its engine promptly and the team survives for the next one;
//   - observability (/metrics with streaming latency quantiles, /healthz)
//     and graceful shutdown that drains in-flight work.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/armci"
	"srumma/internal/cluster"
	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
	"srumma/internal/sched"
)

// Execution tiers. routeCache is the zero-compute tier: a content-addressed
// result-cache hit that skips admission queueing, the scheduler, and the
// engine entirely. routeCluster replaces routeSRUMMA when the server runs
// in cluster mode: the same large products, sharded across OS-process
// worker nodes instead of the in-process teams.
const (
	routeSmall   = "small"
	routeSRUMMA  = "srumma"
	routeCache   = "cache"
	routeCluster = "cluster"
)

// Config sizes the service. The zero value gets production-lean defaults
// from fill().
type Config struct {
	// NProcs is the SPMD rank count of each pooled team (default 4).
	NProcs int
	// ProcsPerNode groups ranks into shared-memory domains (default:
	// NProcs, one machine-wide domain).
	ProcsPerNode int
	// Teams is the number of persistent engine teams, i.e. the maximum
	// concurrently executing SRUMMA requests (default 2). One job leaves
	// the cores idle in its serial phases — team dispatch, operand
	// placement, the entry and exit barriers, the last ranks' tail and the
	// response write — so a second team lets the next admitted job compute
	// in those gaps instead of waiting in the queue: the paper's double
	// buffering, one layer up.
	Teams int
	// QueueCap bounds ADMITTED requests — executing plus waiting. Requests
	// beyond it are refused with 429 (default 4 * Teams, i.e. 8 with the
	// default pool).
	QueueCap int
	// SmallMNK routes products with M*N*K at or below it to the direct
	// local kernel instead of the distributed engine (default 2^21,
	// i.e. 128^3).
	SmallMNK int
	// MaxDim rejects any matrix dimension beyond it (default 4096).
	MaxDim int
	// DefaultTimeout bounds requests that do not set timeout_ms (default
	// 30s); MaxTimeout caps what a request may ask for (default 2m), and
	// is as long as the server waits for a request's header or its body.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// TraceEvents, when positive, turns on always-on span tracing: every
	// engine rank, the request handlers and the scheduler record into a
	// per-lane ring buffer holding the most recent TraceEvents spans each,
	// exported as Chrome trace JSON from GET /debug/trace. Zero (the
	// default) disables tracing; the disabled path records nothing and
	// allocates nothing.
	TraceEvents int

	// ABFT verifies every SRUMMA task's produced C block against
	// Huang-Abraham operand sums (core.Options.ABFT), restoring and
	// recomputing corrupted blocks.
	ABFT bool

	// Hier routes distributed SRUMMA requests through the hierarchical
	// two-level path (internal/hier): ranks are carved into groups, one per
	// shared-memory domain, and each remote operand region is staged ONCE
	// per group before the flat executor runs, cutting inter-node volume
	// while staying bit-identical to the flat path. Applies to the
	// in-process teams and to the cluster route (where groups map onto
	// worker nodes). The ledger/salvage recovery machinery is unchanged:
	// the hierarchical path runs the same grid and task lists, so resumed
	// retries work identically.
	Hier bool

	// Cluster shards the SRUMMA route across OS-process worker nodes: an
	// internal/cluster pool of ClusterNodes nodes (each NProcs ranks, PPN
	// ProcsPerNode) replaces the in-process distributed tier. The small
	// route, scheduler, cache and retry machinery are unchanged; worker death
	// folds into the retry budget via the pool's typed errors and the
	// cross-process salvage. An idle node is health-checked every 2s.
	Cluster bool
	// ClusterNodes is the pool size (default 2).
	ClusterNodes int
	// ClusterTransport selects each node's inter-domain RMA transport:
	// "unix" (default) or "tcp".
	ClusterTransport string
	// ClusterListen, when set, binds each node coordinator's TCP control
	// listener at a fixed "host:port" (node i gets port+i) instead of an
	// ephemeral one — the addresses external workers -join, reported per
	// node in /metrics. Implies ClusterTransport "tcp".
	ClusterListen string

	// CacheEntries enables the content-addressed result cache when > 0:
	// operands get a keyed 128-bit digest at decode, and identical requests
	// are served bit-identical results from a bounded LRU, holding at most
	// cacheBytes of results, without touching the scheduler or engine. 0
	// (the default) disables content addressing entirely.
	CacheEntries int

	// Test seams, set only by this package's tests; production runs their
	// zero values.
	//
	// maxTaskK caps the contraction length of one SRUMMA task on the
	// distributed route (core.Options.MaxTaskK), so a planted crash leaves
	// completed tasks for the retry to resume; 0 is one task per K block.
	maxTaskK int
	// clusterHeartbeat overrides the idle-node health-check period
	// (0: 2s; negative: no background checker).
	clusterHeartbeat time.Duration
	// faultPlan layers the deterministic fault injector over every engine
	// job, drawing op indices from process-wide counters (faults.Shared) so
	// schedules advance across jobs and an injected crash fires exactly
	// once.
	faultPlan *faults.Plan
}

// Serving constants every deployment runs.
const (
	// cacheBytes bounds the result cache's resident result bytes.
	cacheBytes = 256 << 20
	// retryBudget is how many times a recoverably-failed job (rank or
	// small-route executor panic, rank death, exhausted ABFT recompute) is
	// retried before its error surfaces; the waits before the retries are
	// retryBackoff, doubling per attempt.
	retryBudget  = 2
	retryBackoff = 10 * time.Millisecond
)

func (c Config) fill() Config {
	if c.NProcs <= 0 {
		c.NProcs = 4
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = c.NProcs
	}
	if c.Teams <= 0 {
		c.Teams = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.Teams
	}
	if c.SmallMNK <= 0 {
		c.SmallMNK = 128 * 128 * 128
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.Cluster {
		if c.ClusterNodes <= 0 {
			c.ClusterNodes = 2
		}
		if c.ClusterListen != "" && c.ClusterTransport == "" {
			c.ClusterTransport = "tcp"
		}
		if c.clusterHeartbeat == 0 {
			c.clusterHeartbeat = 2 * time.Second
		}
		if c.clusterHeartbeat < 0 {
			c.clusterHeartbeat = 0
		}
	}
	return c
}

// Server is the GEMM service. Create with New, expose via Handler or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg  Config
	topo rt.Topology
	g    *grid.Grid

	// sched is the workload scheduler: it owns admission, ordering,
	// dispatch and the fixed pool of persistent engine teams.
	sched *sched.Scheduler

	// cpool is the cluster node pool (nil unless Config.Cluster): the
	// SRUMMA route's jobs shard onto it instead of the in-process teams.
	cpool *cluster.Pool

	met      *metrics
	draining atomic.Bool
	jobs     sync.WaitGroup // in-flight multiply handlers

	// dg content-addresses operands and cache is the bounded LRU result
	// store they key (both nil unless CacheEntries > 0).
	dg    *digester
	cache *resultCache

	// chaos is the process-wide fault injector state (nil unless
	// Config.faultPlan is set).
	chaos *faults.Shared

	// hierGroups and hierShape describe the two-level topology in
	// hierarchical mode (zero and "" when flat), decided once in New.
	hierGroups int
	hierShape  string

	// rec is the span recorder behind /debug/trace (nil when
	// Config.TraceEvents is 0): lanes 0..NProcs-1 are engine ranks,
	// lane NProcs the request handlers, lane NProcs+1 the scheduler.
	rec       *obs.Recorder
	laneNames []string

	// testDispatchHook holds a func(*sched.Task) tests install to block or
	// crash dispatches deterministically; nil in production.
	testDispatchHook atomic.Value

	mux *http.ServeMux

	hsMu sync.Mutex
	hs   *http.Server
}

// New builds a server and spins up its persistent engine teams.
func New(cfg Config) (*Server, error) {
	cfg = cfg.fill()
	g, err := grid.Square(cfg.NProcs)
	if err != nil {
		return nil, err
	}
	topo := rt.Topology{NProcs: cfg.NProcs, ProcsPerNode: cfg.ProcsPerNode,
		DomainSpansMachine: cfg.ProcsPerNode >= cfg.NProcs}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		topo: topo,
		g:    g,
		met:  newMetrics(cfg.QueueCap),
	}
	if cfg.Hier {
		// The groups are topo's shared-memory domains, vetted with it above.
		ht := hier.From(topo, g)
		gr, gc := ht.GroupShape(0)
		s.hierGroups, s.hierShape = ht.NumDomains(), fmt.Sprintf("%dx%d", gr, gc)
	}
	if cfg.CacheEntries > 0 {
		s.dg = processDigester
		s.cache = newResultCache(cfg.CacheEntries, cacheBytes, s.met.reg)
	}
	if cfg.faultPlan != nil {
		s.chaos = faults.NewShared(cfg.faultPlan)
	}
	if cfg.TraceEvents > 0 {
		// One ring-buffered lane per engine rank plus one for the request
		// handlers and one for the scheduler; every team in the pool shares
		// the recorder, so /debug/trace is one timeline for the whole service.
		s.rec = obs.NewRecorder(cfg.NProcs+2, cfg.TraceEvents)
		s.laneNames = make([]string, cfg.NProcs+2)
		for i := 0; i < cfg.NProcs; i++ {
			s.laneNames[i] = "rank " + strconv.Itoa(i)
		}
		s.laneNames[cfg.NProcs] = "server"
		s.laneNames[cfg.NProcs+1] = "sched"
	}
	if cfg.Cluster {
		if !ipcrt.Available() {
			return nil, fmt.Errorf("server: cluster mode needs the multi-process engine, unavailable on this platform")
		}
		if cfg.ClusterListen != "" && cfg.ClusterTransport != "tcp" {
			return nil, fmt.Errorf("server: ClusterListen needs the tcp cluster transport, got %q", cfg.ClusterTransport)
		}
		pool, err := cluster.New(cluster.Config{
			Nodes:          cfg.ClusterNodes,
			NP:             cfg.NProcs,
			PPN:            cfg.ProcsPerNode,
			Transport:      cfg.ClusterTransport,
			ListenAddr:     cfg.ClusterListen,
			JobTimeout:     cfg.MaxTimeout,
			HeartbeatEvery: cfg.clusterHeartbeat,
			Metrics:        s.met.reg,
		})
		if err != nil {
			return nil, err
		}
		s.cpool = pool
	}
	sc, err := s.newScheduler()
	if err != nil {
		if s.cpool != nil {
			s.cpool.Close()
		}
		return nil, err
	}
	s.sched = sc
	s.met.schedSnap = sc.Snapshot
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/multiply", s.handleMultiply)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/info", s.handleInfo)
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a point-in-time metrics snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.met.snapshot()
	snap.Wire = s.met.wireSnapshot()
	if s.cpool != nil {
		snap.Cluster = s.cpool.Snapshot()
	}
	if s.cache != nil {
		cs := s.cache.stats()
		snap.Cache = &cs
	}
	snap.HierGroups, snap.HierGroupShape = s.hierGroups, s.hierShape
	return snap
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.mux, ReadHeaderTimeout: s.cfg.MaxTimeout}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the service: new work is refused (healthz goes 503,
// multiplies get 503), in-flight requests run to completion (or their
// deadlines), the listener closes, and the engine teams are closed with
// leaked-rank detection — a team that fails to drain surfaces as a
// *WatchdogError. When ctx runs out before the in-flight requests finish,
// Shutdown stops waiting and returns "drain interrupted" — but still tears
// the scheduler and the cluster pool down, so no worker process, socket or
// segment file outlives the server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var herr error
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		herr = hs.Shutdown(ctx) // waits for in-flight HTTP handlers
	}
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		derr = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	// Drain the run queue and close every pooled team (leaked-rank reports
	// surface through the scheduler's Close; with ctx already expired it
	// cancels what is still queued instead of waiting), then shut the
	// cluster node pool down — after the scheduler, so no dispatch can race
	// a closing pool.
	cerr := s.sched.Close(ctx)
	if s.cpool != nil {
		s.cpool.Close()
	}
	switch {
	case derr != nil:
		return derr
	case cerr != nil:
		return cerr
	}
	return herr
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		// Prometheus text exposition over the same registry snapshot the
		// JSON view is derived from: server.*, sched.*, recover.*.
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, s.met.reg.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleTrace dumps the span recorder as Chrome trace-event JSON (load the
// body into chrome://tracing or Perfetto). The rings hold the most recent
// Config.TraceEvents spans per lane, so the dump is a trailing window of
// service activity, not an unbounded history.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled: start the server with TraceEvents > 0"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTraceNamed(w, s.rec.Events(), s.laneNames, "srumma serve")
}

// InfoResponse is the body of GET /v1/info: the deployment parameters an
// operator or load balancer needs.
type InfoResponse struct {
	NProcs       int    `json:"nprocs"`
	ProcsPerNode int    `json:"procs_per_node"`
	Teams        int    `json:"teams"`
	QueueCap     int    `json:"queue_cap"`
	SmallMNK     int    `json:"small_mnk"`
	MaxDim       int    `json:"max_dim"`
	Kernel       string `json:"kernel"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	// KernelThreads is each rank's local-dgemm width, derived from the
	// machine: armci.DefaultKernelThreads(nprocs).
	KernelThreads int `json:"default_kernel_threads"`
	// The content-addressed result cache bounds (zero entries = content
	// addressing off).
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes,omitempty"`
	// Cluster deployment parameters: node count and inter-domain RMA
	// transport of the sharded distributed tier (zero nodes = in-process).
	ClusterNodes     int    `json:"cluster_nodes,omitempty"`
	ClusterTransport string `json:"cluster_transport,omitempty"`
	// Hierarchical routing mode: the two-level topology the planner
	// decided (group count and intra-group shape on the composite grid).
	Hier           bool   `json:"hier,omitempty"`
	HierGroups     int    `json:"hier_groups,omitempty"`
	HierGroupShape string `json:"hier_group_shape,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	clusterNodes, clusterTransport, cacheCap := 0, "", int64(0)
	if s.cpool != nil {
		clusterNodes = s.cpool.Nodes()
		clusterTransport = s.cfg.ClusterTransport
		if clusterTransport == "" {
			clusterTransport = "unix"
		}
	}
	if s.cache != nil {
		cacheCap = cacheBytes
	}
	writeJSON(w, http.StatusOK, InfoResponse{
		NProcs:        s.cfg.NProcs,
		ProcsPerNode:  s.cfg.ProcsPerNode,
		Teams:         s.cfg.Teams,
		QueueCap:      s.cfg.QueueCap,
		SmallMNK:      s.cfg.SmallMNK,
		MaxDim:        s.cfg.MaxDim,
		Kernel:        mat.KernelName(),
		GOMAXPROCS:    goruntime.GOMAXPROCS(0),
		KernelThreads: armci.DefaultKernelThreads(s.cfg.NProcs),

		CacheEntries: s.cfg.CacheEntries,
		CacheBytes:   cacheCap,

		ClusterNodes:     clusterNodes,
		ClusterTransport: clusterTransport,

		Hier:           s.cfg.Hier,
		HierGroups:     s.hierGroups,
		HierGroupShape: s.hierShape,
	})
}

// retryAfter estimates how long an overflowing client should back off,
// priced from the observed service rate: the backlog ahead of the client
// divided by recent completions per second. When the rate window is empty
// (cold start, long stall) it falls back to one mean service time. The
// hint is clamped to [1s, 60s].
func (s *Server) retryAfter() int {
	secs := 0
	if rps := s.met.recentRPS(); rps > 0 {
		secs = int(math.Ceil(float64(s.sched.Queued()+1) / rps))
	} else {
		secs = int(s.met.overall.Mean()) + 1
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// reqEnv bundles one decoded request's routing state through the handler
// layers: the wire it arrived (and will answer) on, the validated shape
// and timeout, and — when the cache is on — its content-addressed
// identity.
type reqEnv struct {
	wr      *wireRequest
	cs      core.Case
	d       core.Dims
	timeout time.Duration
	route   string

	respWire string // wireJSON or wireBinary, from Accept (default: mirror the request)

	key cacheKey // set when the cache is on
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	if s.rec != nil {
		defer func() { s.rec.RecordWall(s.cfg.NProcs, obs.KindRequest, t0, time.Now()) }()
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		return
	}
	wr, werr := s.decodeRequest(w, r)
	if werr != nil {
		writeJSON(w, werr.status, ErrorResponse{Error: werr.Error()})
		return
	}
	// Pooled operand storage is recycled when the handler leaves — after the
	// response (which may encode straight out of it) is written. release
	// honors wr.noPool for runs that may have leaked engine readers.
	defer wr.release()
	req := &wr.req

	cs, err := parseCase(req.Case)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{ID: req.ID, Error: err.Error()})
		return
	}
	d, err := req.dims(cs, s.cfg.MaxDim)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{ID: req.ID, Error: err.Error()})
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	env := &reqEnv{wr: wr, cs: cs, d: d, timeout: timeout}
	env.respWire = negotiateRespWire(r, wr)

	// Content addressing: key the request by its decode-time digests and
	// probe the result cache. A hit is served straight from memory —
	// bit-identical to a fresh compute — without touching admission,
	// scheduler, or engine.
	if s.cache != nil {
		env.key = wr.resultKey(cs)
		if out, dig, ok := s.cache.get(env.key); ok {
			s.serveCacheHit(w, env, t0, out, dig)
			return
		}
	}

	route := routeSRUMMA
	if d.M*d.N*d.K <= s.cfg.SmallMNK || s.cfg.NProcs == 1 {
		route = routeSmall
	}
	if route == routeSRUMMA && s.cpool != nil {
		// Cluster mode: the distributed tier runs on the node pool.
		route = routeCluster
	}
	env.route = route
	s.runScheduled(w, r, env)
}

// negotiateRespWire picks the response encoding: Accept wins when it names
// a supported type, otherwise the response mirrors the request's wire.
func negotiateRespWire(r *http.Request, wr *wireRequest) string {
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, ContentTypeBinaryResult) {
		return wireBinary
	}
	if strings.Contains(accept, ContentTypeJSON) {
		return wireJSON
	}
	return wr.wire
}

// countingWriter counts response bytes for the per-wire traffic metrics.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeOK writes a success response on the negotiated wire and settles the
// request's traffic metrics. On the binary wire the scalar response fields
// travel as X-Srumma-* headers and the body is the bare result matrix.
func (s *Server) writeOK(w http.ResponseWriter, env *reqEnv, resp *MultiplyResponse) {
	cw := &countingWriter{w: w}
	if env.respWire == wireBinary {
		h := w.Header()
		h.Set("Content-Type", ContentTypeBinaryResult)
		setIf := func(k, v string) {
			if v != "" {
				h.Set(k, v)
			}
		}
		setIf("X-Srumma-Id", resp.ID)
		h.Set("X-Srumma-Route", resp.Route)
		h.Set("X-Srumma-Queue-Ms", strconv.FormatFloat(resp.QueueMillis, 'g', -1, 64))
		h.Set("X-Srumma-Elapsed-Ms", strconv.FormatFloat(resp.ElapsedMillis, 'g', -1, 64))
		h.Set("X-Srumma-Gflops", strconv.FormatFloat(resp.GFlops, 'g', -1, 64))
		if resp.Cached {
			h.Set("X-Srumma-Cached", "1")
		}
		setIf("X-Srumma-Digest-A", resp.DigestA)
		setIf("X-Srumma-Digest-B", resp.DigestB)
		setIf("X-Srumma-Digest-C-In", resp.DigestCIn)
		setIf("X-Srumma-Digest", resp.Digest)
		// The size is known before the first byte: say so, and the body goes
		// out as it is instead of chunk by chunk.
		h.Set("Content-Length", strconv.Itoa(binRespHeaderLen+8*len(resp.C)))
		w.WriteHeader(http.StatusOK)
		encodeBinaryResponse(cw, resp.Rows, resp.Cols, resp.C)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(cw).Encode(resp)
	}
	s.met.noteWire(env.wr.wire, env.wr.bytesIn, cw.n)
}

// writeErr writes an error response (always JSON, regardless of the
// request wire) and settles the request's traffic metrics.
func (s *Server) writeErr(w http.ResponseWriter, env *reqEnv, status int, eresp ErrorResponse) {
	cw := &countingWriter{w: w}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(cw).Encode(eresp)
	s.met.noteWire(env.wr.wire, env.wr.bytesIn, cw.n)
}

// serveCacheHit answers a request from the result cache: zero compute,
// zero queueing, the full digest chain attached. Admission metrics still
// see the request (route "cache") so hit traffic is visible in the same
// latency/throughput views as computed traffic.
func (s *Server) serveCacheHit(w http.ResponseWriter, env *reqEnv, t0 time.Time, out mat.Matrix, dig digest) {
	s.met.admit()
	resp := &MultiplyResponse{
		ID:     env.wr.req.ID,
		Rows:   env.d.M,
		Cols:   env.d.N,
		C:      out.Data,
		Route:  routeCache,
		Cached: true,
	}
	env.stampDigests(resp, dig)
	s.met.finish(routeCache, "ok", time.Since(t0), 0)
	s.writeOK(w, env, resp)
}

// stampDigests attaches the digest chain: the operands as decoded, and the
// result as served.
func (env *reqEnv) stampDigests(resp *MultiplyResponse, result digest) {
	resp.DigestA, resp.DigestB, resp.Digest = hexDigest(env.wr.dig[0]), hexDigest(env.wr.dig[1]), hexDigest(result)
	if env.key.cIn != (digest{}) {
		resp.DigestCIn = hexDigest(env.key.cIn)
	}
}

// storeResult content-addresses a fresh result, stamps the response's
// digest chain, and retains the result in the cache. With the cache on, out
// is always a freshly allocated matrix (mat.New in gemmLocal or the engine's
// in-place result) — never pooled storage — so the cache can own its
// backing array.
func (s *Server) storeResult(env *reqEnv, out *mat.Matrix, resp *MultiplyResponse) {
	if s.cache == nil || out == nil {
		return
	}
	dig := s.dg.sum(resp.Rows, resp.Cols, out.Data)
	env.stampDigests(resp, dig)
	s.cache.put(env.key, *out, dig)
}

// runScheduled runs one validated, routed request through the workload
// scheduler: build a task, submit (backpressure on a full run queue —
// overflow is refused with 429, never buffered), wait for the executor —
// or the deadline — and translate the outcome. This loop is the one retry
// path, for every route: a job that fails recoverably (retryableRunError:
// rank or executor panic, worker death, exhausted ABFT recompute) is
// resubmitted as a new task with exponential backoff up to retryBudget
// times — a distributed one resuming from what its ranks salvaged, a small
// one restarted. A job wedged inside its dispatch is not detected here: it
// holds its team, and the request answers 504 at its deadline.
func (s *Server) runScheduled(w http.ResponseWriter, r *http.Request, env *reqEnv) {
	req, cs, d, route := &env.wr.req, env.cs, env.d, env.route
	admitted := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), env.timeout)
	defer cancel()
	flops := 2 * float64(d.M) * float64(d.N) * float64(d.K)

	job := &schedJob{req: req, cs: cs, d: d, ctx: ctx}
	if route != routeSmall {
		job.rec = &jobRecovery{}
	}

	// Register the job BEFORE Submit: once submitted, the task can dispatch
	// (and observers can react) before this goroutine runs another line, so
	// the drain ledger must already include it.
	s.jobs.Add(1)
	defer s.jobs.Done()

	var err error
	inFlight := false
	for attempt := 0; ; attempt++ {
		task := &sched.Task{Batchable: route == routeSmall, Cancel: ctx.Done(), Payload: job}
		// In flight from before Submit: a small request on an idle pool is
		// computed inside it, by this goroutine. admitted_total is monotonic,
		// so it waits until Submit has accepted.
		if !inFlight {
			s.met.inFlight.Add(1)
		}
		if serr := s.sched.Submit(task); serr != nil {
			if inFlight {
				// A retry that cannot even queue: surface the run error the
				// retry was trying to fix, not the admission refusal.
				break
			}
			s.met.inFlight.Add(-1)
			if errors.Is(serr, sched.ErrClosed) {
				s.writeErr(w, env, http.StatusServiceUnavailable, ErrorResponse{ID: req.ID, Error: "server draining"})
				return
			}
			ra := s.retryAfter()
			s.met.reject()
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			s.writeErr(w, env, http.StatusTooManyRequests, ErrorResponse{ID: req.ID, Error: "queue full", RetryAfterSeconds: ra})
			return
		}
		// From here the scheduler (and soon an engine) can read the operand
		// buffers; they may be recycled only after a provably-joined run.
		env.wr.noPool = true
		if !inFlight {
			s.met.admitted.Inc()
			inFlight = true
		}

		// A small request on an idle pool was computed inside Submit, on this
		// goroutine, and is already done; anything else is waited for.
		select {
		case <-task.Done():
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			// Deadline while queued or executing: the scheduler drops a queued
			// task when it surfaces; an executing one finishes into the void —
			// possibly still reading the operands, so wr.noPool stays set. A
			// run that finished past the deadline is late all the same.
			s.met.finish(route, "cancelled", 0, 0)
			s.writeErr(w, env, http.StatusGatewayTimeout, ErrorResponse{ID: req.ID, Error: "deadline exceeded: " + ctx.Err().Error()})
			return
		}

		err = task.Err()
		if err == nil || attempt >= retryBudget || !retryableRunError(err) {
			break
		}
		t0 := time.Now()
		s.met.noteRetry(job.rec)
		if s.rec != nil {
			s.rec.RecordWall(s.cfg.NProcs, obs.KindRecover, t0, time.Now())
		}
		if !sleepCtx(ctx, retryBackoff<<attempt) {
			s.met.finish(route, "cancelled", 0, 0)
			s.writeErr(w, env, http.StatusGatewayTimeout, ErrorResponse{ID: req.ID, Error: "deadline exceeded: " + ctx.Err().Error()})
			return
		}
	}
	// Every task submitted above has finished, and an executor finishes a
	// task only once nothing of it reads the operands any more (a team run
	// joins its ranks): pooled operand buffers are safe to recycle.
	env.wr.noPool = false

	switch {
	case err == nil:
		env.wr.result = job.outBuf // recycled with the operands, after the response
		total := time.Since(admitted)
		s.met.finish(route, "ok", total, flops)
		elapsed := job.finished.Sub(job.started)
		resp := MultiplyResponse{
			ID:            req.ID,
			Rows:          d.M,
			Cols:          d.N,
			C:             job.out.Data,
			Route:         route,
			QueueMillis:   job.started.Sub(admitted).Seconds() * 1e3,
			ElapsedMillis: elapsed.Seconds() * 1e3,
		}
		if secs := elapsed.Seconds(); secs > 0 {
			resp.GFlops = flops / secs / 1e9
		}
		s.storeResult(env, job.out, &resp)
		s.writeOK(w, env, &resp)
	case errors.Is(err, sched.ErrCancelled), errors.Is(err, core.ErrCancelled),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.met.finish(route, "cancelled", 0, 0)
		s.writeErr(w, env, http.StatusGatewayTimeout, ErrorResponse{ID: req.ID, Error: "cancelled: " + err.Error()})
	case errors.Is(err, sched.ErrClosed):
		s.met.finish(route, "cancelled", 0, 0)
		s.writeErr(w, env, http.StatusServiceUnavailable, ErrorResponse{ID: req.ID, Error: "server draining"})
	default:
		s.met.finish(route, "error", 0, 0)
		s.writeErr(w, env, http.StatusInternalServerError, ErrorResponse{ID: req.ID, Error: err.Error()})
	}
}
