package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"srumma/internal/ipcrt"
	"srumma/internal/obs"
)

// The cluster workload's node ranks re-execute the running binary — here the
// test binary — so it must offer the worker entry point first.
func TestMain(m *testing.M) {
	ipcrt.MaybeWorker()
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	// The tail rule: a percentile is stated only with ten samples beyond it.
	if !resolved(100, 0.9) || resolved(99, 0.9) {
		t.Error("p90 needs exactly 100 samples to have 10 beyond it")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestResolved(c.n); got != c.want {
			t.Errorf("highestResolved(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestDot2IsCompensated(t *testing.T) {
	x := []float64{1e16, 1, -1e16, 0x1p-60}
	y := []float64{1, 1, 1, 1}
	if got, _ := dot2(len(x), x, 1, y, 1); got != 1+0x1p-60 && got != 1 {
		t.Errorf("dot2 lost the small terms: %v", got)
	}
	// Strided views: row 1 of a 2x3 times column 2 of a 3x3.
	a := []float64{0, 0, 0, 1, 2, 3}
	b := []float64{0, 0, 4, 0, 0, 5, 0, 0, 6}
	if got, mass := dot2(3, a[3:], 1, b[2:], 3); got != 32 || mass != 32 {
		t.Errorf("strided dot2 = %v (mass %v), want 32", got, mass)
	}
}

// The share of its undisturbed speed the box delivered: floor over mean, the
// floor taken from every reading, the mean from the readings of the stretch.
func TestBoxShare(t *testing.T) {
	bc := &boxClock{}
	for range 20 {
		bc.bursts = append(bc.bursts, 1) // a quiet stretch
	}
	for range 20 {
		bc.bursts = append(bc.bursts, 1, 2) // half of it disturbed, twice as slow
	}
	if got := bc.shareOf(0, 20); got != 1 {
		t.Errorf("share of the quiet stretch = %v, want 1", got)
	}
	if got := bc.share(20); math.Abs(got-1/1.5) > 1e-12 {
		t.Errorf("share of the disturbed stretch = %v, want 1/1.5", got)
	}
}

// A closed loop stops only on round boundaries, pauses all its callers
// together to read the box, and counts the pauses as neither wall nor CPU.
func TestClosedLoopPauses(t *testing.T) {
	const clients, roundLen = 2, 3
	box := newBoxClock()
	began := time.Now()
	perClient, lt := closedLoop(clients, roundLen, budget{d: 250 * time.Millisecond}, box, func(c, i int) sample {
		time.Sleep(time.Duration(1+c) * time.Millisecond) // client 1 is the slower one
		return sample{latency: time.Duration(i)}
	})
	elapsed := time.Since(began)
	pauses := box.readings()/gomaxprocs() - 1
	if pauses < 2 {
		t.Errorf("%d pauses in 250 ms, want one about every %v", pauses, pauseEvery)
	}
	for c, samples := range perClient {
		if len(samples) == 0 || len(samples)%roundLen != 0 {
			t.Errorf("client %d ran %d operations, want whole rounds of %d", c, len(samples), roundLen)
		}
		if len(samples) < pauses*pauseMinRounds*roundLen {
			t.Errorf("client %d ran %d operations over %d pauses, want at least %d rounds between pauses", c, len(samples), pauses, pauseMinRounds)
		}
		for i, s := range samples {
			if int(s.latency) != i {
				t.Fatalf("client %d: operation %d was issued as number %d", c, i, int(s.latency))
			}
		}
		if lt.active[c] <= 0 || lt.active[c] > elapsed {
			t.Errorf("client %d worked %v of %v", c, lt.active[c], elapsed)
		}
	}
	// A fixed count runs as one segment: the box is read before and after.
	box = newBoxClock()
	perClient, _ = closedLoop(clients, roundLen, budget{ops: 12}, box, func(c, i int) sample { return sample{} })
	if len(perClient[0]) != 6 || len(perClient[1]) != 6 || box.readings() != 2*gomaxprocs() {
		t.Errorf("12 operations: clients ran %d and %d, %d readings", len(perClient[0]), len(perClient[1]), box.readings())
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: at(0), End: at(100)},
		// Sequential children, one with a child of its own.
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 2, Name: "a.inner", Start: at(20), End: at(30)},
		// Two children that overlap each other for 10 ms (parallel ranks).
		{ID: 4, Parent: 1, Name: "rank", Start: at(50), End: at(80)},
		{ID: 5, Parent: 1, Name: "rank", Start: at(70), End: at(90)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":      30 * time.Millisecond, // 100 - (30 + 40 covered)
		"a":       20 * time.Millisecond,
		"a.inner": 10 * time.Millisecond,
		"rank":    40 * time.Millisecond, // the union, each instant counted once
	}
	var total time.Duration
	for name, d := range want {
		if diff := got[name] - d; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
		total += got[name]
	}
	if diff := total - 100*time.Millisecond; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("self times sum to %v, want the op's 100ms", total)
	}
	if _, err := checkNesting(spans); err != nil {
		t.Errorf("nesting: %v", err)
	}
	spans[2].End = at(45) // a.inner now sticks out of a
	if _, err := checkNesting(spans); err == nil {
		t.Error("a child outside its parent must be reported")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	w := findWorkload("serve-small")
	a, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(w, 7)
	c, _ := generate(w, 8)
	for i := range 3 * len(w.round) {
		ia, _ := a.at(1, i)
		ib, _ := b.at(1, i)
		ic, _ := c.at(1, i)
		if ia.g != w.round[i%len(w.round)] {
			t.Fatalf("op %d has shape %v, want the round's %v", i, ia.g, w.round[i%len(w.round)])
		}
		if !bytes.Equal(ia.body, ib.body) {
			t.Fatalf("op %d differs between two generations of seed 7", i)
		}
		if bytes.Equal(ia.body, ic.body) {
			t.Fatalf("op %d is the same for seeds 7 and 8", i)
		}
	}
}

// The revisit stream must produce a hit ratio of exactly 2/3 by construction:
// per client, every round is one body never sent before followed by the same
// body twice, and no two clients ever send the same body.
func TestRevisitStream(t *testing.T) {
	w := findWorkload("serve-cache-revisit")
	its, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[sha256.Size]byte]bool{}
	hits, total := 0, 0
	for client := range w.clients {
		for i := range 30 {
			it, fresh := its.at(client, i)
			key := sha256.Sum256(it.body)
			if fresh != (i%3 == 0) {
				t.Fatalf("client %d op %d: fresh = %v", client, i, fresh)
			}
			if fresh == seen[key] {
				t.Fatalf("client %d op %d: fresh = %v but body seen before = %v", client, i, fresh, seen[key])
			}
			if seen[key] {
				hits++
			}
			seen[key] = true
			total++
		}
	}
	if hits*3 != total*2 {
		t.Errorf("%d hits of %d requests, want exactly 2/3", hits, total)
	}
}

type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func sameMetrics(t *testing.T, kind string, listed []struct{ Name, Unit string }, got metrics) {
	t.Helper()
	want := map[string]string{}
	for _, m := range listed {
		want[m.Name] = m.Unit
	}
	for name, m := range got {
		if want[name] != m.Unit {
			t.Errorf("%s metric %s (%s) is not listed in BENCHMARK.json with that unit", kind, name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s metric %s is %v", kind, name, m.Value)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s metric %s is listed in BENCHMARK.json but was not measured", kind, name)
		}
	}
}

// TestSmoke runs every workload end to end at a hundredth of its operation
// count, and two of them traced with the probes shrunk, so that a refactor
// that breaks a symbol or a path the benchmark uses fails here, in that PR.
func TestSmoke(t *testing.T) {
	var spec benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	// Every workload BENCHMARK.json gates must exist here with the same
	// reason; serve-cluster-256 runs too but is too unsteady to gate.
	for _, lw := range spec.Workloads {
		if w := findWorkload(lw.Name); w == nil || w.why != lw.Why {
			t.Errorf("BENCHMARK.json workload %q does not match the benchmark's", lw.Name)
		}
	}
	for _, w := range workloads() {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if got, want := len(spec.Workloads), len(workloads())-1; got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", got, want)
	}

	traced := map[string]bool{"lib-trans-ragged": true, "serve-cache-revisit": true}
	out := t.TempDir()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			b := budget{ops: max(w.ops/100, w.clients*len(w.round)), setupReps: 1}
			rec, err := runUntraced(w, 5, b)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.correct() {
				t.Errorf("untraced run is not correct: failed %d, bit_identical %v, problems %v", rec.Failed, rec.BitIdentical, rec.Problems)
			}
			sameMetrics(t, "end-to-end", spec.EndToEnd, rec.Metrics)
			if !traced[w.name] {
				return
			}
			rec, err = runTraced(shrunk(w), 5, b, 8, out)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.correct() {
				t.Errorf("traced run is not correct: failed %d, bit_identical %v, problems %v", rec.Failed, rec.BitIdentical, rec.Problems)
			}
			sameMetrics(t, "per-layer", spec.PerLayer, rec.Metrics)
			if w.revisit {
				if got := rec.Diagnostics["server.cache_hit_ratio"].Value; got != 2.0/3.0 {
					t.Errorf("cache hit ratio = %v, want exactly 2/3", got)
				}
				if got := rec.Metrics["server.route_share"].Value; got != 1 {
					t.Errorf("route share = %v, want 1", got)
				}
			}
			raw, err := os.ReadFile(rec.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := obs.ValidateChromeTrace(raw); err != nil || n == 0 {
				t.Errorf("trace file: %d slices, %v", n, err)
			}
		})
	}
}

// shrunk is a library workload at an eighth of each dimension (with the server
// its shapes are pushed through told to keep them on the engine's route); a
// serving workload keeps its shapes, which decide its route.
func shrunk(w *workload) *workload {
	tw := *w
	if !w.serve {
		tw.cfg.SmallMNK = 1
		tw.round = nil
		for _, g := range w.round {
			tw.round = append(tw.round, gemm{g.cs, g.m / 8, g.n / 8, g.k / 8})
		}
	}
	return &tw
}

// TestWorkloadProbes runs the probes that only one workload's traced run
// reaches, at small sizes: they call the layers directly, so the shape does
// not change the path.
func TestWorkloadProbes(t *testing.T) {
	want := map[string][]string{
		"lib-nn-1024":       {"mat.gemm_1024_gflops"},
		"lib-trans-ragged":  {"mat.gemm_trans_gflops"},
		"serve-small":       {"mat.gemm_96_us", "sched.noop_task_us"},
		"serve-hier-p16":    {"hier.multiply_ms", "hier.flat_multiply_ms", "hier.bytes_remote_per_op", "hier.volume_ratio"},
		"serve-cluster-256": {"cluster.pool_run_ms_p50", "cluster.hop_overhead_ms", "cluster.first_job_s", "cluster.shipped_bytes_per_op", "cluster.child_cpu_ms_per_op", "ipcrt.compute_ms", "ipcrt.wait_ms", "ipcrt.barrier_ms"},
	}
	for _, w := range workloads() {
		tw := *w
		tw.round = []gemm{cube(64)}
		its, err := generate(&tw, 5)
		if err != nil {
			t.Fatal(err)
		}
		d := metrics{}
		for _, probe := range w.extra {
			if err := probe(8, d); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		if w.cfg.Hier {
			if err := probeHier(&tw, its, d); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		if w.cfg.Cluster {
			if err := probeCluster(&tw, its, 1, d); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if left := leaks(nil); len(left) > 0 {
				t.Errorf("%s: cluster probe left %v", w.name, left)
			}
		}
		for _, name := range want[w.name] {
			if v, ok := d[name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: diagnostic %s = %v (present %v)", w.name, name, v.Value, ok)
			}
		}
		if len(d) != len(want[w.name]) {
			t.Errorf("%s: probes set %v, want %v", w.name, d.names(), want[w.name])
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		better                      string
		floor, old, new, oldS, newS float64
		want                        string
	}{
		{"lower", 0, 10, 10.5, 0, 0, "unchanged"},
		{"lower", 0, 10, 11.5, 0, 0, "REGRESSION"},
		{"lower", 0, 10, 8, 0, 0, "improved"},
		{"higher", 0, 10, 8, 0, 0, "REGRESSION"},
		{"higher", 0, 10, 12, 0.02, 0.03, "improved"},
		// A side whose own quartile spread exceeds the bound resolves nothing.
		{"lower", 0, 10, 11.5, 0.2, 0, "unresolved"},
		// setup_s: a change below the absolute floor is no change.
		{"lower", 0.05, 0.06, 0.09, 0, 0, "unchanged"},
		{"lower", 0.05, 0.06, 0.12, 0, 0, "REGRESSION"},
	} {
		if _, got := verdict(c.better, 0.1, c.floor, c.old, c.new, c.oldS, c.newS); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spreads %v/%v) = %s, want %s", c.better, c.old, c.new, c.oldS, c.newS, got, c.want)
		}
	}
}
