package server

// Serving metrics: monotonic counters, gauges derived from the admission
// machinery, and latency quantiles from streaming log-bucketed histograms.
// All instruments live in an obs.Registry shared with the workload
// scheduler (names "server.*" and "sched.*"), so /metrics is a view over
// the same observability spine the engines trace into — one counter model
// across the stack. Everything is O(1) per request and bounded in memory,
// so the metrics path cannot become the bottleneck it is supposed to
// observe.

import (
	"time"

	"srumma/internal/cluster"
	"srumma/internal/obs"
	"srumma/internal/sched"
)

// RouteStats is the per-execution-tier slice of a metrics snapshot.
type RouteStats struct {
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_s"`

	Admitted  uint64 `json:"admitted_total"`
	Completed uint64 `json:"completed_total"`
	Rejected  uint64 `json:"rejected_429_total"`
	Errors    uint64 `json:"error_total"`
	Cancelled uint64 `json:"cancelled_total"`

	QueueDepth int `json:"queue_depth"`
	Executing  int `json:"executing"`
	QueueCap   int `json:"queue_cap"`

	ThroughputRPS float64 `json:"throughput_rps"`
	// GFlopsServed is aggregate useful arithmetic divided by uptime.
	GFlopsServed float64 `json:"gflops_served"`
	FlopsTotal   float64 `json:"flops_total"`

	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`

	// RecentRPS is the completion rate over the trailing rate window —
	// the observed service rate that prices Retry-After hints.
	RecentRPS float64 `json:"recent_rps"`

	Routes map[string]RouteStats `json:"routes"`

	// Stages is each pre-admission stage's cost from inside: "decode" (read
	// and parse), "validate" (non-finite scan), "digest" (cache on only).
	Stages map[string]RouteStats `json:"stages"`

	// Wire breaks request traffic down by wire format ("json"/"binary"):
	// request counts and bytes on the wire in each direction, with p50/p99
	// body sizes from streaming histograms.
	Wire map[string]WireStats `json:"wire,omitempty"`
	// Cache is the content-addressed result cache view (omitted when the
	// cache is disabled).
	Cache *CacheStats `json:"cache,omitempty"`

	// Sched is the workload scheduler's view: pool size, run-queue depth
	// and queue wait, dispatches, caller-run dispatches.
	Sched *sched.Snapshot `json:"sched,omitempty"`

	// Recovery is the block-level job recovery view: handler retries,
	// resumed vs restarted jobs, tasks skipped by resume, ABFT detections.
	Recovery RecoveryStats `json:"recovery"`

	// Cluster is the node pool's supervision view (omitted outside cluster
	// mode): per-node health, job counts, and replacements.
	Cluster []cluster.NodeStats `json:"cluster,omitempty"`

	// HierGroups/HierGroupShape describe the two-level topology in
	// hierarchical routing mode (omitted when flat): how many SUMMA
	// groups the engine grid is carved into and the intra-group grid
	// shape "RxC". The byte counts say whether the mode is buying anything:
	// what went through a band once for several members, and what was
	// fetched by its only consumer exactly as flat would.
	HierGroups           int    `json:"hier_groups,omitempty"`
	HierGroupShape       string `json:"hier_group_shape,omitempty"`
	HierStagedBytes      uint64 `json:"hier_staged_bytes,omitempty"`
	HierMemberFetchBytes uint64 `json:"hier_member_fetch_bytes,omitempty"`
}

// RecoveryStats is the recovery slice of a metrics snapshot.
type RecoveryStats struct {
	Retries        uint64 `json:"retries"`
	ResumedJobs    uint64 `json:"resumed_jobs"`
	RestartedJobs  uint64 `json:"restarted_jobs"`
	ResumedTasks   uint64 `json:"resumed_tasks"`
	ABFTDetected   uint64 `json:"abft_detected"`
	ABFTRecomputed uint64 `json:"abft_recomputed"`
}

// WireStats is one wire format's traffic slice of a metrics snapshot.
type WireStats struct {
	Requests uint64 `json:"requests"`
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	// Per-request body sizes (bytes) from log-bucketed histograms.
	BytesInP50  float64 `json:"bytes_in_p50"`
	BytesInP99  float64 `json:"bytes_in_p99"`
	BytesOutP50 float64 `json:"bytes_out_p50"`
	BytesOutP99 float64 `json:"bytes_out_p99"`
}

// metrics is the serving layer's instrument block: cached pointers into the
// shared registry, so hot paths never take the registry's lock.
type metrics struct {
	start    time.Time
	queueCap int

	reg       *obs.Registry
	admitted  *obs.Counter
	completed *obs.Counter
	rejected  *obs.Counter
	errors    *obs.Counter
	cancelled *obs.Counter
	inFlight  *obs.Gauge
	flops     *obs.FloatCounter
	overall   *obs.Histogram
	routes    map[string]*obs.Histogram
	// decodeRequest's stages, observed in milliseconds as named.
	decodeMs, validateMs, digestMs *obs.Histogram
	rate                           obs.RateWindow

	retries        *obs.Counter
	resumedJobs    *obs.Counter
	restartedJobs  *obs.Counter
	resumedTasks   *obs.Counter
	abftDetected   *obs.Counter
	abftRecomputed *obs.Counter
	hierStaged     *obs.Counter
	hierFetched    *obs.Counter

	// wires is the per-wire-format traffic instrument block, keyed by
	// wireJSON/wireBinary. A request is attributed to the wire its BODY
	// arrived on (responses usually mirror it; Accept can diverge).
	wires map[string]*wireInstruments

	// schedSnap sources the queue/executing gauges and the Sched section
	// from the workload scheduler, where the run queue and the team pool
	// live. New installs it before the server serves.
	schedSnap func() sched.Snapshot
}

func newMetrics(queueCap int) *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		start:     time.Now(),
		queueCap:  queueCap,
		reg:       reg,
		admitted:  reg.Counter("server.admitted"),
		completed: reg.Counter("server.completed"),
		rejected:  reg.Counter("server.rejected_429"),
		errors:    reg.Counter("server.errors"),
		cancelled: reg.Counter("server.cancelled"),
		inFlight:  reg.Gauge("server.in_flight"),
		flops:     reg.Float("server.flops"),
		overall:   reg.Histogram("server.latency"),
		routes: map[string]*obs.Histogram{
			routeSmall:   reg.Histogram("server.latency.route." + routeSmall),
			routeSRUMMA:  reg.Histogram("server.latency.route." + routeSRUMMA),
			routeCache:   reg.Histogram("server.latency.route." + routeCache),
			routeCluster: reg.Histogram("server.latency.route." + routeCluster),
		},
		wires: map[string]*wireInstruments{
			wireJSON:   newWireInstruments(reg, wireJSON),
			wireBinary: newWireInstruments(reg, wireBinary),
		},
		decodeMs:       reg.Histogram("server.decode_ms"),
		validateMs:     reg.Histogram("server.validate_ms"),
		digestMs:       reg.Histogram("server.digest_ms"),
		retries:        reg.Counter("recover.retries"),
		resumedJobs:    reg.Counter("recover.resumed_jobs"),
		restartedJobs:  reg.Counter("recover.restarted_jobs"),
		resumedTasks:   reg.Counter("recover.resumed_tasks"),
		abftDetected:   reg.Counter("recover.abft_detected"),
		abftRecomputed: reg.Counter("recover.abft_recomputed"),
		hierStaged:     reg.Counter("hier.staged_bytes"),
		hierFetched:    reg.Counter("hier.member_fetch_bytes"),
	}
}

// wireByteScale maps body sizes into the log-bucketed histogram's native
// range: obs.Histogram buckets cover [50e-6, ~9.7e3] in its unit, so
// observing bytes*1e-6 gives distinct buckets for bodies from 50 bytes to
// ~10 GB. wireSnapshot multiplies quantiles back out.
const wireByteScale = 1e-6

// wireInstruments is one wire format's traffic counters.
type wireInstruments struct {
	reqs     *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	inHist   *obs.Histogram
	outHist  *obs.Histogram
}

func newWireInstruments(reg *obs.Registry, wire string) *wireInstruments {
	return &wireInstruments{
		reqs:     reg.Counter("server.wire." + wire + ".requests"),
		bytesIn:  reg.Counter("server.wire." + wire + ".bytes_in"),
		bytesOut: reg.Counter("server.wire." + wire + ".bytes_out"),
		inHist:   reg.Histogram("server.wire." + wire + ".body_in_bytes"),
		outHist:  reg.Histogram("server.wire." + wire + ".body_out_bytes"),
	}
}

// noteWire attributes one completed request's body sizes to its wire.
func (m *metrics) noteWire(wire string, bytesIn, bytesOut int64) {
	wi := m.wires[wire]
	if wi == nil {
		return
	}
	wi.reqs.Inc()
	wi.bytesIn.Add(bytesIn)
	wi.bytesOut.Add(bytesOut)
	wi.inHist.Observe(float64(bytesIn) * wireByteScale)
	wi.outHist.Observe(float64(bytesOut) * wireByteScale)
}

// wireSnapshot materializes the per-wire traffic view.
func (m *metrics) wireSnapshot() map[string]WireStats {
	out := make(map[string]WireStats, len(m.wires))
	for wire, wi := range m.wires {
		out[wire] = WireStats{
			Requests:    uint64(wi.reqs.Load()),
			BytesIn:     uint64(wi.bytesIn.Load()),
			BytesOut:    uint64(wi.bytesOut.Load()),
			BytesInP50:  wi.inHist.Quantile(0.50) / wireByteScale,
			BytesInP99:  wi.inHist.Quantile(0.99) / wireByteScale,
			BytesOutP50: wi.outHist.Quantile(0.50) / wireByteScale,
			BytesOutP99: wi.outHist.Quantile(0.99) / wireByteScale,
		}
	}
	return out
}

// noteRetry records one handler-level retry of a failed job: resumed when
// the ledger salvaged completed work, restarted otherwise — always for a
// small product, whose rec is nil.
func (m *metrics) noteRetry(rec *jobRecovery) {
	m.retries.Inc()
	if n := rec.resumedTasks(); n > 0 {
		m.resumedJobs.Inc()
		m.resumedTasks.Add(int64(n))
	} else {
		m.restartedJobs.Inc()
	}
}

// noteABFT accumulates a run's verification counts.
func (m *metrics) noteABFT(detected, recomputed int64) {
	if detected > 0 {
		m.abftDetected.Add(detected)
	}
	if recomputed > 0 {
		m.abftRecomputed.Add(recomputed)
	}
}

// admit counts a request that is admitted and in flight in one step (a
// cache hit). runScheduled moves the two apart: in flight from before
// Submit, admitted once Submit has accepted.
func (m *metrics) admit() {
	m.admitted.Inc()
	m.inFlight.Add(1)
}

func (m *metrics) reject() {
	m.rejected.Inc()
}

// finish settles one admitted request. outcome is one of "ok", "error",
// "cancelled".
func (m *metrics) finish(route, outcome string, latency time.Duration, flops float64) {
	m.inFlight.Add(-1)
	switch outcome {
	case "ok":
		m.completed.Inc()
		m.flops.Add(flops)
		m.rate.Record(time.Now())
		m.overall.Observe(latency.Seconds())
		if h := m.routes[route]; h != nil {
			h.Observe(latency.Seconds())
		}
	case "cancelled":
		m.cancelled.Inc()
	default:
		m.errors.Inc()
	}
}

// recentRPS is the completion rate over the trailing window.
func (m *metrics) recentRPS() float64 {
	return m.rate.RPS(time.Now())
}

// histStats reads a family of histograms in milliseconds; toMs is 1e3 for
// histograms observed in seconds, 1 for ones observed in milliseconds.
func histStats(hs map[string]*obs.Histogram, toMs float64) map[string]RouteStats {
	out := make(map[string]RouteStats, len(hs))
	for name, h := range hs {
		out[name] = RouteStats{
			Count:  h.Count(),
			P50Ms:  h.Quantile(0.50) * toMs,
			P99Ms:  h.Quantile(0.99) * toMs,
			MeanMs: h.Mean() * toMs,
		}
	}
	return out
}

func (m *metrics) snapshot() MetricsSnapshot {
	ss := m.schedSnap() // the scheduler has its own locking
	up := time.Since(m.start).Seconds()
	s := MetricsSnapshot{
		UptimeSeconds: up,
		Admitted:      uint64(m.admitted.Load()),
		Completed:     uint64(m.completed.Load()),
		Rejected:      uint64(m.rejected.Load()),
		Errors:        uint64(m.errors.Load()),
		Cancelled:     uint64(m.cancelled.Load()),
		QueueDepth:    ss.Queued,
		Executing:     max(0, int(ss.InFlight)-ss.Queued),
		QueueCap:      m.queueCap,
		FlopsTotal:    m.flops.Load(),
		LatencyP50Ms:  m.overall.Quantile(0.50) * 1e3,
		LatencyP90Ms:  m.overall.Quantile(0.90) * 1e3,
		LatencyP99Ms:  m.overall.Quantile(0.99) * 1e3,
		LatencyMeanMs: m.overall.Mean() * 1e3,
		LatencyMaxMs:  m.overall.Max() * 1e3,
		RecentRPS:     m.rate.RPS(time.Now()),
		Routes:        histStats(m.routes, 1e3),
		Stages:        histStats(map[string]*obs.Histogram{"decode": m.decodeMs, "validate": m.validateMs, "digest": m.digestMs}, 1),
		Sched:         &ss,
		Recovery: RecoveryStats{
			Retries:        uint64(m.retries.Load()),
			ResumedJobs:    uint64(m.resumedJobs.Load()),
			RestartedJobs:  uint64(m.restartedJobs.Load()),
			ResumedTasks:   uint64(m.resumedTasks.Load()),
			ABFTDetected:   uint64(m.abftDetected.Load()),
			ABFTRecomputed: uint64(m.abftRecomputed.Load()),
		},
		HierStagedBytes:      uint64(m.hierStaged.Load()),
		HierMemberFetchBytes: uint64(m.hierFetched.Load()),
	}
	if up > 0 {
		s.ThroughputRPS = float64(s.Completed) / up
		s.GFlopsServed = s.FlopsTotal / up / 1e9
	}
	return s
}
