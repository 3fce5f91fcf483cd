// Command benchmark is the repo's one benchmark: seven closed-loop workloads
// over the library and serving paths, each measured end to end (untraced) and
// layer by layer (traced, from outside). See README.md beside this file.
//
//	go run ./benchmark                        every workload, untraced then traced
//	go run ./benchmark -workload W -trace 0   one run, the form BENCHMARK.json's driver uses
//	go run ./benchmark -repeat 10             medians and quartiles of the end-to-end metrics
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"srumma/internal/ipcrt"
)

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

func main() {
	// The cluster workload's node ranks are this binary, re-executed.
	ipcrt.MaybeWorker()

	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result as the last line")
		seed    = flag.Uint64("seed", 1, "seed of every generated operand")
		seconds = flag.Int("seconds", 15, "length of each timed loop")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, untraced; 1 = per-layer metrics, traced")
		repeat  = flag.Int("repeat", 1, "run each untraced workload this many times and report median and quartiles")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	// The harness sets and records GOMAXPROCS = min(nproc, 4); worker
	// processes inherit it through the environment.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	os.Setenv("GOMAXPROCS", strconv.Itoa(procs))

	b := budget{d: time.Duration(*seconds) * time.Second}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(runOne(*name, *seed, b, *trace == 1))
	default:
		os.Exit(runAll(*seed, *seconds, *repeat))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outDir receives result.json, the trace files and each run's full record.
const outDir = "benchmark/out"

func recordPath(workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, "run-"+workload+"-"+kind+".json")
}

// runOne runs one workload once in this process, prints every metric by name
// with its unit, leaves the full record in outDir, and ends with the result
// line. The exit code is non-zero when any result was wrong.
func runOne(name string, seed uint64, b budget, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", name))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	var rec *record
	var err error
	if traced {
		rec, err = runTraced(w, seed, b, 1, outDir)
	} else {
		rec, err = runUntraced(w, seed, b)
	}
	if err != nil {
		fail(err)
	}
	printRecord(rec)
	if err := writeJSON(recordPath(name, traced), rec); err != nil {
		fail(err)
	}
	// Exactly the metrics BENCHMARK.json lists for this kind of run.
	line := driverLine{Correct: rec.correct(), Attempted: rec.Attempted, Failed: rec.Failed + len(rec.Problems), Metrics: rec.Metrics}
	out, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !rec.correct() {
		return 1
	}
	return 0
}

func printRecord(r *record) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s  %s  seed %d\n", r.Workload, kind, r.Seed)
	fmt.Printf("   attempted %d  failed %d  bit_identical %v  latency samples %d  highest resolved percentile p%g\n",
		r.Attempted, r.Failed, r.BitIdentical, r.Samples, r.TopResolved*100)
	for _, n := range r.Metrics.names() {
		fmt.Printf("   %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Diagnostics.names() {
		fmt.Printf("   %-32s %14.6g %s  (diagnostic)\n", n, r.Diagnostics[n].Value, r.Diagnostics[n].Unit)
	}
	if len(r.Waterfall) > 0 {
		fmt.Println("   waterfall (ms, and what each layer adds over the one beneath):")
		for _, row := range r.Waterfall {
			fmt.Printf("     %-40s %10.3f  %+10.3f\n", row.Layer, row.Ms, row.Adds)
		}
	}
	if len(r.SelfMs) > 0 {
		fmt.Printf("   span self time, summed over traced ops (covers %.4f of the op durations):\n", r.SelfCoverage)
		names := make([]string, 0, len(r.SelfMs))
		for n := range r.SelfMs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("     %-24s %12.3f ms\n", n, r.SelfMs[n])
		}
		fmt.Printf("   trace: %s\n", r.TraceFile)
	}
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// environment is what a result was taken on; no number is recorded without it.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"git_commit"`
	Date       string `json:"date"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: gomaxprocs(), NProc: runtime.NumCPU(),
		CPU: "unknown", Kernel: kernelName(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Why string `json:"why"`
	// EndToEnd holds the median run when the untraced run was repeated.
	EndToEnd *record `json:"end_to_end"`
	PerLayer *record `json:"per_layer,omitempty"`
	// Runs, Q1 and Q3 hold every repeat's value of each end-to-end metric
	// and their quartiles (present with -repeat > 1).
	Runs map[string][]float64 `json:"runs,omitempty"`
	Q1   map[string]float64   `json:"q1,omitempty"`
	Q3   map[string]float64   `json:"q3,omitempty"`
}

type resultFile struct {
	Env       environment                `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Repeat    int                        `json:"repeat"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runAll runs each workload in its own child process — untraced (repeat
// times), then traced — and writes result.json.
func runAll(seed uint64, seconds, repeat int) int {
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	res := resultFile{Env: currentEnvironment(), Seed: seed, Seconds: seconds, Repeat: repeat, Workloads: map[string]*workloadResult{}}
	status := 0
	child := func(w *workload, runSeed uint64, traced bool) *record {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(runSeed, 10), "-seconds", strconv.Itoa(seconds),
			"-trace", map[bool]string{false: "0", true: "1"}[traced]}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// Everything but the machine-readable result line, which the record
		// file repeats.
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if !strings.HasPrefix(line, `{"correct":`) {
				fmt.Print(line)
			}
		}
		if err != nil {
			fmt.Printf("   %s exited: %v\n", w.name, err)
			status = 1
		}
		rec := &record{}
		if err := readJSON(recordPath(w.name, traced), rec); err != nil {
			fail(err)
		}
		return rec
	}
	for _, w := range workloads() {
		wr := &workloadResult{Why: w.why}
		res.Workloads[w.name] = wr
		var runs []*record
		for i := range repeat {
			// Repeats vary the seed, as the acceptance driver does.
			runs = append(runs, child(w, seed+uint64(i), false))
		}
		wr.EndToEnd = runs[0]
		if repeat > 1 {
			wr.Runs, wr.Q1, wr.Q3 = map[string][]float64{}, map[string]float64{}, map[string]float64{}
			med := metrics{}
			for name, m0 := range runs[0].Metrics {
				for _, r := range runs {
					wr.Runs[name] = append(wr.Runs[name], r.Metrics[name].Value)
				}
				med.set(name, m0.Unit, median(wr.Runs[name]))
				wr.Q1[name], wr.Q3[name] = quartiles(wr.Runs[name])
			}
			wr.EndToEnd.Metrics = med
			fmt.Printf("== %s  %d untraced runs: median [q1 .. q3] spread\n", w.name, repeat)
			for _, name := range med.names() {
				fmt.Printf("   %-32s %14.6g [%.6g .. %.6g] %.4f %s\n", name, med[name].Value, wr.Q1[name], wr.Q3[name], spread(wr.Runs[name]), med[name].Unit)
			}
		}
		wr.PerLayer = child(w, seed, true)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
	return status
}
