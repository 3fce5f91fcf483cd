package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named number with its unit, as measured, all digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

func (m metrics) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// record is the outcome of one run of one workload: untraced (end-to-end
// metrics) or traced (per-layer metrics).
type record struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Traced       bool    `json:"traced"`
	BitIdentical bool    `json:"bit_identical"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	Samples      int     `json:"samples"`
	TopResolved  float64 `json:"highest_resolved_percentile"`
	// Metrics are the gated set BENCHMARK.json names; Diagnostics are extra
	// numbers that only exist on some workloads or do not repeat well.
	Metrics     metrics `json:"metrics"`
	Diagnostics metrics `json:"diagnostics,omitempty"`
	// SelfMs is, per span name, the self time summed over the traced
	// operations; SelfCoverage is their total over the summed op durations.
	SelfMs       map[string]float64 `json:"self_ms,omitempty"`
	SelfCoverage float64            `json:"self_coverage,omitempty"`
	Waterfall    []waterfallRow     `json:"waterfall,omitempty"`
	Problems     []string           `json:"problems,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// lookup finds a number of the run by name, gated metric or diagnostic.
func (r *record) lookup(name string) (metric, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m, true
	}
	m, ok := r.Diagnostics[name]
	return m, ok
}

func (r *record) correct() bool { return r.Failed == 0 && r.BitIdentical && len(r.Problems) == 0 }

func (r *record) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// closed records whatever a torn-down system left behind.
func (r *record) closed(when string, left []string) {
	for _, l := range left {
		r.problem("%s: %s", when, l)
	}
}

// waterfallRow is one layer of the outside-in waterfall: its own number and
// what it adds over the row beneath it.
type waterfallRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
	Adds  float64 `json:"adds_ms"`
}

const (
	// Set-up is repeated so that setup_s is a median: at least setupMinReps
	// times, then until setupBudget is spent or setupMaxReps is reached.
	setupMinReps = 5
	setupMaxReps = 40
	setupBudget  = 1500 * time.Millisecond
	// Each phase of a run draws its operation indices from its own range, so
	// the revisit stream never resends a value an earlier phase used.
	phaseStride = 1 << 12 // rounds
)

func phaseBase(w *workload, phase int) int { return phase * phaseStride * len(w.round) }

// warmUp runs 5% of the budget, at least 3 operations, before anything is
// timed: caches fill, scratch pools size themselves, and the first result of
// every distinct shape is compared with the serial kernel.
func warmUp(w *workload, sys system, b budget, box *boxClock, phase int) (failed int) {
	wb := b.scale(0.05)
	wb.minOps = 3
	base := phaseBase(w, phase)
	_, win := timed(w.clients, len(w.round), wb, box, func(c, i int) sample { return sys.op(c, base+i) })
	return win.failed
}

func buildSystem(w *workload, its *items, ck *checker) (system, error) {
	if w.serve {
		return newServeSystem(w, its, ck, false)
	}
	return newLibSystem(w, its, ck)
}

// setUp constructs the system under test and takes it through its first
// correct result, returning how long a user waited for that.
func setUp(w *workload, its *items, ck *checker, rec *record) (system, float64, error) {
	t0 := time.Now()
	sys, err := buildSystem(w, its, ck)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	built := time.Since(t0)
	first := sys.op(0, 0)
	if first.failed {
		rec.problem("set-up: first result is wrong")
	}
	return sys, (built + first.latency).Seconds(), nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w *workload, seed uint64, b budget) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Metrics: metrics{}, Diagnostics: metrics{}}
	its, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	ck := newChecker(seed, w.reference())

	// The box is read before every set-up, while nothing of the program runs.
	box := newBoxClock()
	var sys system
	var setups []float64
	began := time.Now()
	for {
		box.read()
		var s float64
		if sys, s, err = setUp(w, its, ck, rec); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		n := len(setups)
		if b.setupReps > 0 && n >= b.setupReps ||
			b.setupReps == 0 && n >= setupMinReps && (n >= setupMaxReps || time.Since(began) >= setupBudget) {
			break
		}
		rec.closed("after set-up", sys.close())
	}
	setupReadings := box.readings()

	warmFailed := warmUp(w, sys, b, box, 1)
	base := phaseBase(w, 2)
	_, win := timed(w.clients, len(w.round), b, box, func(c, i int) sample { return sys.op(c, base+i) })
	rss := peakRSSMB()
	rec.closed("after the run", sys.close())
	// The floor of the box's readings is known only now, from all of them.
	setupShare := box.shareOf(0, setupReadings)

	rec.BitIdentical = ck.identical()
	rec.Attempted, rec.Failed = win.attempted, win.failed+warmFailed
	rec.Samples = win.attempted - win.failed
	rec.TopResolved = highestResolved(rec.Samples)
	// Times are stated at the box's undisturbed speed: as measured, times the
	// share of that speed the box delivered while they were measured.
	m, share := rec.Metrics, win.speedShare
	m.set("setup_s", "s", median(setups)*setupShare)
	m.set("ops_per_s", "1/s", win.opsPerS/share)
	m.set("gflops", "GFLOP/s", win.gflops/share)
	m.set("latency_p50_ms", "ms", win.p50*share)
	m.set("latency_p90_ms", "ms", win.p90*share)
	m.set("cpu_ms_per_op", "ms", win.cpuMsPerOp*share)
	m.set("peak_rss_mb", "MB", rss)
	d := rec.Diagnostics
	d.set("box.speed_share", "ratio", share)
	d.set("box.setup_speed_share", "ratio", setupShare)
	d.set("raw.setup_s", "s", median(setups))
	d.set("raw.ops_per_s", "1/s", win.opsPerS)
	d.set("raw.latency_p50_ms", "ms", win.p50)
	d.set("raw.latency_p90_ms", "ms", win.p90)
	d.set("raw.cpu_ms_per_op", "ms", win.cpuMsPerOp)
	d.set("failed_share", "ratio", float64(rec.Failed)/float64(rec.Attempted))
	d.set("max_rel_err", "ratio", win.maxRelErr)
	d.set("client.latency_p99_ms", "ms", win.p99)
	d.set("setup_reps", "count", float64(len(setups)))
	d.set("wall_s", "s", win.wallS)
	return rec, nil
}

// runTraced measures the per-layer metrics of one workload: a quarter-length
// untraced loop and a quarter-length traced loop on the workload's own path
// (their difference is the tracing overhead), then every layer probed from
// outside through its public functions. shrink divides the dimensions of the
// workload's fixed-shape probes (1 for a real run; tests pass more).
func runTraced(w *workload, seed uint64, b budget, shrink int, outDir string) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Traced: true, Metrics: metrics{}, Diagnostics: metrics{}}
	its, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	ck := newChecker(seed, w.reference())
	m, diag := rec.Metrics, rec.Diagnostics
	quarter, eighth := b.scale(0.25), b.scale(0.125)
	tr := &tracer{}
	round := len(w.round)
	box := newBoxClock()

	// 1. The workload's own path, untraced then traced.
	var plain, traced window
	var loop serveObs // serving: the untraced loop with the server's counters
	sys, _, err := setUp(w, its, ck, rec)
	if err != nil {
		return nil, err
	}
	warmFailed := warmUp(w, sys, b, box, 1)
	if ss, ok := sys.(*serveSystem); ok {
		loop = observeServe(ss, phaseBase(w, 2), quarter, box)
		plain = loop.win
		ss.tr = tr
		_, traced = timed(w.clients, round, quarter, box, func(c, i int) sample { return ss.op(c, phaseBase(w, 3)+i) })
		ss.tr = nil
	} else {
		_, plain = timed(w.clients, round, quarter, box, func(c, i int) sample { return sys.op(c, phaseBase(w, 2)+i) })
		r, err := newRig(w.nprocs(), w.ppn())
		if err != nil {
			return nil, err
		}
		rs := &rigSystem{its, ck, r, &tracer{}}
		warmFailed += warmUp(w, rs, b, box, 3) // spans of the warm-up are thrown away
		rs.tr = tr
		_, traced = timed(w.clients, round, quarter, box, func(c, i int) sample { return rs.op(c, phaseBase(w, 4)+i) })
		rec.closed("after the traced run", rs.close())
	}
	rec.closed("after the run", sys.close())
	rec.Attempted = plain.attempted + traced.attempted
	rec.Failed = plain.failed + traced.failed + warmFailed
	rec.Samples = plain.attempted - plain.failed
	rec.TopResolved = highestResolved(rec.Samples)
	m.set("client.latency_p99_ms", "ms", plain.p99)
	m.set("client.samples", "count", float64(rec.Samples))
	m.set("trace.overhead_share", "ratio", (traced.p50*traced.speedShare-plain.p50*plain.speedShare)/(plain.p50*plain.speedShare))
	m.set("box.speed_share", "ratio", plain.speedShare)
	m.set("failed_share", "ratio", float64(rec.Failed)/float64(rec.Attempted))
	m.set("max_rel_err", "ratio", max(plain.maxRelErr, traced.maxRelErr))

	// 2. The trace itself: nesting, self times, the file.
	rootTotal, err := checkNesting(tr.spans)
	if err != nil {
		rec.problem("trace: %v", err)
	}
	rec.SelfMs = map[string]float64{}
	var selfTotal time.Duration
	for name, d := range selfTimes(tr.spans) {
		rec.SelfMs[name] = d.Seconds() * 1e3
		selfTotal += d
	}
	rec.SelfCoverage = selfTotal.Seconds() / rootTotal.Seconds()
	if rec.SelfCoverage < 0.95 || rec.SelfCoverage > 1.05 {
		rec.problem("trace: self times cover %.3f of the op durations", rec.SelfCoverage)
	}
	rec.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeChrome(rec.TraceFile, "benchmark "+w.name, tr.spans); err != nil {
		return nil, err
	}

	// 3. The serving layers. A library workload's shapes are pushed through
	// a server of the common configuration, so that every workload states
	// what serving its operations costs.
	sw := *w
	sw.serve = true
	if !w.serve {
		ss, err := newServeSystem(&sw, its, ck, false)
		if err != nil {
			return nil, err
		}
		rec.Failed += warmUp(&sw, ss, eighth, box, 5)
		loop = observeServe(ss, phaseBase(w, 6), eighth, box)
		rec.Failed += loop.win.failed
		rec.closed("after the serving probe", ss.close())
	}
	ds, err := newServeSystem(&sw, its, ck, true)
	if err != nil {
		return nil, err
	}
	rec.Failed += warmUp(&sw, ds, eighth, box, 7)
	direct := observeServe(ds, phaseBase(w, 8), eighth, box)
	rec.Failed += direct.win.failed
	rec.closed("after the handler probe", ds.close())
	serverMetrics(w, loop, direct, rec)
	if err := probeCodec(w, its, ds.firstBody, m); err != nil {
		return nil, err
	}

	// 4. The layers underneath, each from outside, at the workload's own
	// shape and topology; then the probes that explain this workload alone.
	taskGflops, err := probeMat(w, m)
	if err != nil {
		return nil, err
	}
	if err := probeArmci(w, m); err != nil {
		return nil, err
	}
	if err := probeCore(w, its, taskGflops, m); err != nil {
		return nil, err
	}
	if err := probeCallOverhead(w, its, newChecker(seed, w.planReference()), m); err != nil {
		return nil, err
	}
	for _, probe := range w.extra {
		if err := probe(shrink, diag); err != nil {
			return nil, err
		}
	}
	if w.cfg.Hier {
		if err := probeHier(w, its, diag); err != nil {
			return nil, err
		}
	}
	if w.cfg.Cluster {
		if err := probeCluster(w, its, m["core.multiply_ms"].Value, diag); err != nil {
			return nil, err
		}
	}
	for _, left := range leaks(nil) {
		rec.problem("after the probes: %s", left)
	}
	rec.BitIdentical = ck.identical()
	rec.Waterfall = waterfall(w, m, diag, plain.p50)
	return rec, nil
}

// probeCallOverhead is what srumma.Cluster.Multiply costs around the engine
// time it reports: operand scatter, gather and team dispatch, seen by a caller.
func probeCallOverhead(w *workload, its *items, ck *checker, m metrics) error {
	lw := *w
	lw.serve, lw.revisit, lw.clients, lw.round = false, false, 1, []gemm{w.primary()}
	lits := &items{w: &lw, byShape: its.byShape}
	l, err := newLibSystem(&lw, lits, ck)
	if err != nil {
		return err
	}
	defer l.cl.Close()
	var over []float64
	for i := range 8 {
		s := l.op(0, i)
		if s.failed {
			return fmt.Errorf("call-overhead probe: wrong result")
		}
		if i > 0 {
			over = append(over, latencyMs(&s)-s.engineSec*1e3)
		}
	}
	m.set("core.call_overhead_ms", "ms", median(over))
	return nil
}

// waterfall lays the layer numbers of a traced run on top of one another, from
// the ideal kernel time up to what the client saw; each row states what that
// layer adds over the one beneath it.
func waterfall(w *workload, m, diag metrics, clientP50 float64) []waterfallRow {
	g := w.primary()
	cores := float64(min(w.nprocs(), gomaxprocs()))
	ideal := g.flops() / (m["mat.gemm_task_gflops"].Value * 1e9) / cores * 1e3
	engine, engineName := m["core.multiply_ms"].Value, "core.multiply"
	if w.cfg.Hier {
		engine, engineName = diag["hier.multiply_ms"].Value, "hier.multiply"
	}
	rows := []waterfallRow{
		{Layer: "ideal kernel (2MNK / mat rate / cores)", Ms: ideal},
		{Layer: engineName, Ms: engine},
		{Layer: "+ driver scatter/gather", Ms: engine + m["driver.scatter_ms"].Value + m["driver.gather_ms"].Value},
	}
	switch {
	case !w.serve:
		rows = append(rows, waterfallRow{Layer: "Cluster.Multiply (caller latency_p50)", Ms: clientP50})
		return addsOver(rows)
	case w.route == "small":
		// The small route calls the kernel directly: no engine, no driver.
		rows = []waterfallRow{{Layer: "mat.Gemm 96^3, serial", Ms: diag["mat.gemm_96_us"].Value / 1e3}}
	}
	rows = append(rows,
		waterfallRow{Layer: "server exec (X-Srumma-Elapsed-Ms, computed)", Ms: m["server.exec_ms_p50"].Value},
		waterfallRow{Layer: "server handler", Ms: m["server.handler_ms_p50"].Value},
		waterfallRow{Layer: "client latency_p50", Ms: clientP50})
	return addsOver(rows)
}

func addsOver(rows []waterfallRow) []waterfallRow {
	for i := 1; i < len(rows); i++ {
		rows[i].Adds = rows[i].Ms - rows[i-1].Ms
	}
	return rows
}
