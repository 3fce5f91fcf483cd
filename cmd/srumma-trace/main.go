// Command srumma-trace runs one traced matrix multiplication and renders
// each rank's activity timeline — the double-buffered pipeline made
// visible: g = dgemm, w = waiting on communication, c = shared-memory
// copy, p = pack, b = barrier, s = CPU stolen by staging copies, . = idle.
// Comparing `-alg srumma` with `-alg pdgemm` on the same configuration
// shows exactly where the paper's overlap advantage lives.
//
// Two engines share one event model (internal/obs):
//
//   - `-engine sim` (default) runs the virtual-time performance model of a
//     chosen `-platform`;
//   - `-engine real` runs the actual armci engine on this machine with
//     wall-clock spans — the paper's overlap ratio measured, not modeled.
//
// Usage:
//
//	srumma-trace -platform linux-myrinet -n 1000 -procs 8
//	srumma-trace -platform cray-x1 -n 2000 -procs 16 -blocking
//	srumma-trace -alg pdgemm -n 1000 -procs 8
//	srumma-trace -engine real -n 600 -procs 4 -chrome trace.json
//	srumma-trace -n 600 -procs 16 -chrome trace.json
//	srumma-trace -n 1000 -procs 8 -chaos -seed 7
//	srumma-trace -validate trace.json
//
// -out FILE also writes a machine-readable summary of the run (overlap
// ratio, per-kind busy time). -validate checks that a previously exported
// file is well-formed Chrome trace-event JSON and exits.
//
// With -chaos (sim engine only) the seeded fault plan (internal/faults)
// perturbs the simulated fabric — dropped and delayed transfers, one
// straggler node — and the timeline shows where the pipeline absorbs the
// injected latency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"srumma/internal/algs"
	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/machine"
	"srumma/internal/obs"
	"srumma/internal/rt"
	"srumma/internal/simnet"
	"srumma/internal/simrt"
)

// traceDoc is the -out summary: one traced run's headline numbers, with the
// paper's overlap ratio computed from the recorded spans.
type traceDoc struct {
	Engine   string `json:"engine"`
	Alg      string `json:"alg"`
	Platform string `json:"platform,omitempty"` // sim engine only
	N        int    `json:"n"`
	Procs    int    `json:"procs"`
	PPN      int    `json:"ppn,omitempty"` // real engine only

	WallSeconds float64 `json:"wall_s"`
	GFlops      float64 `json:"gflops"`

	// OverlapRatio is 1 - wait/(wait+compute) over each rank's pipelined
	// phase (first gemm start to last gemm end): 1.0 means communication
	// fully hidden behind dgemm.
	OverlapRatio   float64 `json:"overlap_ratio"`
	WaitSeconds    float64 `json:"wait_s"`
	ComputeSeconds float64 `json:"compute_s"`

	// OverlapFloor records the -min-overlap gate the run was held to
	// (omitted when the gate was off).
	OverlapFloor float64 `json:"overlap_floor,omitempty"`

	// BusySeconds is per-kind busy time summed over ranks.
	BusySeconds map[string]float64 `json:"busy_s"`

	Chaos bool   `json:"chaos,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`

	// Transport and ExternalWorkers record a multi-host ipc run: the RMA
	// transport in use and how many ranks joined as EXTERNAL workers
	// (srumma-worker -join from another container/host) rather than being
	// spawned by this coordinator. A nonzero count means the overlap
	// ratio above was measured across a real host boundary.
	Transport       string `json:"transport,omitempty"`
	ExternalWorkers int    `json:"external_workers,omitempty"`
}

// The flags live at package level so the drift test can walk flag.CommandLine.
var (
	engine     = flag.String("engine", "sim", `engine: "sim" (virtual-time model), "real" (wall-clock armci run) or "ipc" (multi-process workers)`)
	platform   = flag.String("platform", "linux-myrinet", "modeled platform (sim engine)")
	alg        = flag.String("alg", algs.SRUMMA, "algorithm: "+strings.Join(algs.Names, ", "))
	n          = flag.Int("n", 1000, "matrix size (N x N x N)")
	procs      = flag.Int("procs", 8, "process count")
	ppn        = flag.Int("ppn", 0, "ranks per shared-memory domain (real engine; 0: all on one node)")
	width      = flag.Int("width", 100, "timeline width in characters")
	blocking   = flag.Bool("blocking", false, "single-buffer blocking gets")
	noshift    = flag.Bool("noshift", false, "disable the diagonal-shift ordering")
	chrome     = flag.String("chrome", "", "also write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	out        = flag.String("out", "", "also write a machine-readable run summary to this file")
	validate   = flag.String("validate", "", "validate a Chrome trace-event JSON file and exit")
	chaos      = flag.Bool("chaos", false, "inject deterministic faults into the simulated fabric (drops, delays, one straggler)")
	seed       = flag.Uint64("seed", 1, "fault-injection seed (with -chaos)")
	minOverlap = flag.Float64("min-overlap", 0, "fail unless the measured overlap ratio reaches this floor (0: no gate)")
	transport  = flag.String("transport", "", `ipc engine RMA transport: "unix" (default) or "tcp" (required for multi-host)`)
	listen     = flag.String("listen", "", `bind the ipc coordinator's TCP control listener at "host:port" (implies -transport tcp); with -no-spawn this is the address srumma-worker -join dials`)
	noSpawn    = flag.Bool("no-spawn", false, "do not spawn workers: wait for -procs external srumma-worker -join processes (multi-host mode; needs -listen and -dir)")
	runDir     = flag.String("dir", "", "shared run directory for ipc segment files and RMA sockets (default: a fresh temp dir; -no-spawn workers must pass the same -dir)")
)

func main() {
	ipcrt.MaybeWorker() // ipc engine workers re-execute this binary
	log.SetFlags(0)
	log.SetPrefix("srumma-trace: ")
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			log.Fatal(err)
		}
		slices, err := obs.ValidateChromeTrace(data)
		if err != nil {
			log.Fatalf("%s: %v", *validate, err)
		}
		fmt.Printf("%s: valid Chrome trace-event JSON, %d slices\n", *validate, slices)
		return
	}

	g, err := grid.Square(*procs)
	if err != nil {
		log.Fatal(err)
	}

	d := core.Dims{M: *n, N: *n, K: *n}
	flops := 2 * float64(*n) * float64(*n) * float64(*n)

	var (
		events []obs.Event
		wall   float64 // run duration on the engine's clock (seconds)
		doc    = traceDoc{Engine: *engine, Alg: *alg, N: *n, Procs: *procs}
	)

	switch *engine {
	case "sim":
		events, wall = runSim(g, d, *platform, *alg, *procs, *width, *blocking, *noshift, *chaos, *seed, *chrome, flops)
		doc.Platform = *platform
		doc.Chaos = *chaos
		if *chaos {
			doc.Seed = *seed
		}
	case "real":
		if *chaos {
			log.Fatal("-chaos models the simulated fabric; use -engine sim (the real engine's fault injection is exercised by internal/faults' tests: make chaos)")
		}
		events, wall = runReal(g, d, *alg, *procs, *ppn, *width, *blocking, *noshift, *chrome, flops)
		doc.PPN = *ppn
	case "ipc":
		if *chaos {
			log.Fatal("-chaos models the simulated fabric; use -engine sim")
		}
		if *alg != algs.SRUMMA {
			log.Fatalf("-engine ipc runs the srumma algorithm only (got %q)", *alg)
		}
		ipo := ipcOpts{Transport: *transport, Listen: *listen, NoSpawn: *noSpawn, Dir: *runDir}
		if ipo.Listen != "" && ipo.Transport == "" {
			ipo.Transport = "tcp"
		}
		events, wall = runIPC(g, d, *procs, *ppn, *width, *blocking, *noshift, *chrome, flops, ipo)
		doc.PPN = *ppn
		doc.Transport = ipo.Transport
		if *noSpawn {
			doc.ExternalWorkers = *procs
		}
	default:
		log.Fatalf("unknown engine %q (want sim, real or ipc)", *engine)
	}

	// The overlap ratio — the paper's claim as one number — plus per-kind
	// busy time, computed from the same events both engines record.
	wait, compute, ratio := obs.OverlapRatio(events)
	fmt.Printf("\noverlap during pipelined phase: wait %.3f ms, compute %.3f ms, overlap ratio %.3f\n",
		wait*1e3, compute*1e3, ratio)

	doc.WallSeconds = wall
	if wall > 0 {
		doc.GFlops = flops / wall / 1e9
	}
	doc.OverlapRatio = ratio
	doc.WaitSeconds = wait
	doc.ComputeSeconds = compute
	doc.OverlapFloor = *minOverlap
	doc.BusySeconds = obs.Summary(events)
	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote run summary to %s\n", *out)
	}
	// Gate after the summary is written, so a regressing run still leaves
	// its evidence on disk.
	if *minOverlap > 0 && ratio < *minOverlap {
		log.Fatalf("overlap ratio %.3f regressed below the %.3f floor", ratio, *minOverlap)
	}
}

// tracedRun resolves the chosen algorithm's row and returns the per-rank
// job: operands allocated, nothing loaded, then the multiply. t0/t1 receive
// rank 0's multiply span on the engine's clock. prof is nil on the real
// engine, whose shared memory is cacheable (the flavor rule is a property
// of the modeled platform).
func tracedRun(g *grid.Grid, d core.Dims, alg string, prof *machine.Profile, blocking, noshift bool, t0, t1 *float64) func(rt.Ctx) {
	o := algs.Options{}
	o.SingleBuffer, o.NoDiagonalShift = blocking, noshift
	if prof != nil {
		o.Flavor = algs.FlavorFor(*prof)
	}
	row, err := algs.Resolve(alg, g, d, o)
	if err != nil {
		log.Fatal(err)
	}
	return func(c rt.Ctx) {
		ga, gb, gc := row.Alloc(c)
		if c.Rank() == 0 {
			*t0 = c.Now()
			defer func() { *t1 = c.Now() }()
		}
		if err := row.Multiply(c, ga, gb, gc); err != nil {
			panic(err)
		}
	}
}

// printActivity renders the shared tail of both engines' reports: the
// per-kind busy breakdown and parallel efficiency over `horizon` seconds.
func printActivity(events []obs.Event, procs int, horizon float64) {
	sum := obs.Summary(events)
	kinds := make([]string, 0, len(sum))
	for k := range sum {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	total := 0.0
	for _, k := range kinds {
		total += sum[k]
	}
	fmt.Printf("\naggregate activity over %d ranks:\n", procs)
	for _, k := range kinds {
		fmt.Printf("  %-8s %10.3f ms (%5.1f%%)\n", k, sum[k]*1e3, 100*sum[k]/total)
	}
	busy := sum["gemm"]
	idleish := float64(procs)*horizon - total
	fmt.Printf("  %-8s %10.3f ms\n", "idle", idleish*1e3)
	fmt.Printf("\nparallel efficiency (gemm time / total cpu time): %.1f%%\n",
		100*busy/(float64(procs)*horizon))
}

// writeChrome writes a Chrome trace-event file with write, unless path is
// empty.
func writeChrome(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
}

// runSim runs the virtual-time engine. Its stdout report (through the
// parallel-efficiency line) predates the obs refactor and is preserved
// byte-for-byte; the simrt golden test pins the rendering underneath it.
func runSim(g *grid.Grid, d core.Dims, platform, alg string, procs, width int, blocking, noshift, chaos bool, seed uint64, chrome string, flops float64) ([]obs.Event, float64) {
	prof, err := machine.ByName(platform)
	if err != nil {
		log.Fatal(err)
	}
	tr := &simrt.Tracer{}
	var t0, t1 float64
	body := tracedRun(g, d, alg, &prof, blocking, noshift, &t0, &t1)

	var res *simrt.Result
	injected := 0
	if chaos {
		// The same deterministic fault plan the real engine uses, consumed
		// as latency/loss events on the simulated fabric: the timeline shows
		// where the pipeline absorbs (or stalls on) the faults.
		plan, perr := faults.NewPlan(faults.Config{
			Seed: seed, DropRate: 0.05, DelayRate: 0.1, Stragglers: 1,
		}, procs)
		if perr != nil {
			log.Fatal(perr)
		}
		inner := plan.NetHook()
		hook := func(src, dst int, bytes int64) simnet.Fault {
			f := inner(src, dst, bytes)
			if f.Lost || f.ExtraLatency > 0 {
				injected++
			}
			return f
		}
		res, err = simrt.RunTracedFaults(prof, procs, tr, hook, body)
	} else {
		res, err = simrt.RunTraced(prof, procs, tr, body)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s %dx%dx%d on %s, %d procs (%dx%d grid): %.3f ms, %.1f GFLOP/s\n",
		alg, d.M, d.N, d.K, prof.Name, procs, g.P, g.Q, res.Time*1e3, flops/res.Time/1e9)
	fmt.Printf("multiply span on rank 0: %.3f ms\n", (t1-t0)*1e3)
	if chaos {
		fmt.Printf("chaos: seed %d, %d transfers perturbed (lost or delayed on the fabric)\n", seed, injected)
	}
	fmt.Println()

	fmt.Printf("timeline (g=gemm w=wait c=copy p=pack b=barrier s=steal):\n")
	fmt.Print(tr.Timeline(procs, width, res.Time))
	printActivity(tr.Events(), procs, res.Time)

	writeChrome(chrome, func(w io.Writer) error { return tr.WriteChromeTrace(w, procs) })
	return tr.Events(), res.Time
}

// runReal runs the armci engine on this machine with an unbounded span
// recorder attached — wall-clock spans from the same instrumentation the
// serving layer exposes at /debug/trace.
func runReal(g *grid.Grid, d core.Dims, alg string, procs, ppn, width int, blocking, noshift bool, chrome string, flops float64) ([]obs.Event, float64) {
	if ppn <= 0 {
		ppn = procs
	}
	topo := rt.Topology{NProcs: procs, ProcsPerNode: ppn, DomainSpansMachine: ppn >= procs}
	if err := topo.Validate(); err != nil {
		log.Fatal(err)
	}
	rec := obs.NewRecorder(procs, 0)
	var t0, t1 float64
	body := tracedRun(g, d, alg, nil, blocking, noshift, &t0, &t1)
	w0 := time.Now()
	if _, err := armci.RunTraced(topo, rec, body); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(w0).Seconds()
	events := rec.Events()

	fmt.Printf("%s %dx%dx%d on real engine, %d procs (%dx%d grid, %d/node): %.3f ms, %.1f GFLOP/s\n",
		alg, d.M, d.N, d.K, procs, g.P, g.Q, ppn, wall*1e3, flops/wall/1e9)
	fmt.Printf("multiply span on rank 0: %.3f ms\n", (t1-t0)*1e3)
	fmt.Println()

	// Horizon on the recorder's clock: the ranks' spans end before
	// RunTraced returns (team teardown is outside them), so render against
	// the last recorded instant rather than the enclosing wall time.
	horizon := 0.0
	for _, e := range events {
		if e.End > horizon {
			horizon = e.End
		}
	}
	fmt.Printf("timeline (g=gemm w=wait t=get u=put c=copy p=pack b=barrier i=issue j=job):\n")
	fmt.Print(obs.Timeline(events, procs, width, horizon))
	// Job spans envelope a rank's whole run and issue spans envelope the
	// NbGetSub calls they bracket — everything inside both is also recorded —
	// so they'd double-count in a busy/idle breakdown; report leaf spans.
	busy := make([]obs.Event, 0, len(events))
	for _, e := range events {
		if e.Kind != obs.KindJob && e.Kind != obs.KindIssue {
			busy = append(busy, e)
		}
	}
	printActivity(busy, procs, horizon)

	writeChrome(chrome, func(w io.Writer) error { return obs.WriteChromeTrace(w, events, procs, "srumma real run") })
	return events, wall
}
