package bench

// Local-kernel sweep: the single-process counterpart of the paper figures.
// SRUMMA's whole design pushes the bottleneck down to the per-process dgemm
// (communication is overlapped away), so the local kernel's GFLOP/s is the
// ceiling on every real-engine result in this repository. The sweep pits
// the seed kernel (gemmBlocked, the cache-blocked axpy kernel this repo
// started with) against the packed register-tiled hierarchy (mat.Gemm) and
// its goroutine-parallel form (mat.GemmParallel) — at whole-tile and at
// ragged sizes, in all four transpose cases, each rate also as a share of
// what an FMA-only loop sustains on the same machine — then closes with an
// end-to-end real-engine Multiply so kernel gains are shown to survive the
// full communication pipeline.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// KernelRow is one (kernel, case, size) measurement.
type KernelRow struct {
	Kernel    string  // "seed", "packed", "parallelN", "srumma-4p"
	Case      string  // "NN", "TN", "NT", "TT"
	N         int     // square problem size
	Seconds   float64 // best-of-repetitions wall time of one multiply
	GFLOPS    float64 // 2 N^3 / Seconds / 1e9
	Speedup   float64 // vs the seed kernel at the same (Case, N); 1 for seed
	PeakShare float64 `json:",omitempty"` // GFLOPS over the FMA probe's rate on as many threads; 0 for seed

	threads int // what PeakShares sets the row against; 0: nothing
}

// KernelPeak is one FMA probe reading: what the vector units retire when the
// loop holds nothing but independent register-to-register FMAs.
type KernelPeak struct {
	Probe      string  // "fma256", "fma512"
	OneThread  float64 // GFLOP/s, one goroutine
	AllThreads float64 // GFLOP/s summed over GOMAXPROCS goroutines at once
}

// fmaProbe is one probe loop and its flops per iteration.
type fmaProbe struct {
	name         string
	loop         func(iters int)
	flopsPerIter float64
}

// KernelPeaks runs every probe this machine supports, widest last, and
// keeps the higher of each reading and prev's (nil, or an earlier call's
// result): the box's second vCPU is at times a sibling thread of the first,
// so a sweep probes before and after and sets its rows against the better.
func KernelPeaks(prev []KernelPeak) []KernelPeak {
	const iters = 4 << 20
	var peaks []KernelPeak
	for i, p := range fmaProbes() {
		rate := func(threads int) float64 {
			best := 0.0
			for rep := 0; rep < 5; rep++ {
				var wg sync.WaitGroup
				t0 := time.Now()
				for w := 0; w < threads; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p.loop(iters)
					}()
				}
				wg.Wait()
				best = max(best, float64(threads)*iters*p.flopsPerIter/time.Since(t0).Seconds()/1e9)
			}
			return best
		}
		peak := KernelPeak{Probe: p.name, OneThread: rate(1), AllThreads: rate(runtime.GOMAXPROCS(0))}
		if i < len(prev) {
			peak.OneThread = max(peak.OneThread, prev[i].OneThread)
			peak.AllThreads = max(peak.AllThreads, prev[i].AllThreads)
		}
		peaks = append(peaks, peak)
	}
	return peaks
}

// kernelFn runs C = op(A)·op(B) once.
type kernelFn func(transA, transB bool, a, b, c *mat.Matrix) error

// kernelCases are the four transpose cases the sweep times.
var kernelCases = []struct {
	name           string
	transA, transB bool
}{{"NN", false, false}, {"TN", true, false}, {"NT", false, true}, {"TT", true, true}}

// timeKernel returns the best wall time of reps runs, after one untimed run
// that warms pools and caches.
func timeKernel(fn kernelFn, transA, transB bool, a, b, c *mat.Matrix, reps int) (float64, error) {
	if err := fn(transA, transB, a, b, c); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(transA, transB, a, b, c); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0).Seconds())
	}
	return best, nil
}

// KernelSweep measures every kernel at every n in all four transpose cases.
// threads is the worker count asked of the parallel arm; the arm is labelled
// with what mat.GemmParallel will actually use, min(threads, GOMAXPROCS),
// and dropped when that is 1 (it would time the serial kernel twice).
func KernelSweep(ns []int, threads int) ([]KernelRow, error) {
	if threads <= 0 {
		threads = 4
	}
	threads = min(threads, runtime.GOMAXPROCS(0))
	type arm struct {
		name    string
		threads int // 0: not set against the FMA peak
		fn      kernelFn
	}
	kernels := []arm{
		{"seed", 0, func(tA, tB bool, a, b, c *mat.Matrix) error {
			c.Zero()
			gemmBlocked(tA, tB, 1, a, b, c)
			return nil
		}},
		{"packed", 1, func(tA, tB bool, a, b, c *mat.Matrix) error {
			return mat.Gemm(tA, tB, 1, a, b, 0, c)
		}},
	}
	if threads > 1 {
		kernels = append(kernels, arm{fmt.Sprintf("parallel%d", threads), threads, func(tA, tB bool, a, b, c *mat.Matrix) error {
			return mat.GemmParallel(threads, tA, tB, 1, a, b, 0, c)
		}})
	}
	// Five passes over the whole grid, keeping each cell's best time: a
	// shared box slows down for seconds to minutes at a stretch, so
	// repetitions of one cell must lie minutes apart, not back to back.
	// The seed kernel, seconds per run at the larger sizes, is timed in the
	// first pass only.
	const passes = 5
	var rows []KernelRow
	for pass := 0; pass < passes; pass++ {
		cell := 0
		for _, n := range ns {
			a := mat.Random(n, n, 11)
			b := mat.Random(n, n, 22)
			c := mat.New(n, n)
			for _, cs := range kernelCases {
				for _, k := range kernels {
					if pass == 0 {
						rows = append(rows, KernelRow{Kernel: k.name, Case: cs.name, N: n, threads: k.threads})
					}
					row := &rows[cell]
					cell++
					if k.name == "seed" && pass > 0 {
						continue
					}
					reps := 3
					if k.name == "seed" {
						reps = 1
					}
					sec, err := timeKernel(k.fn, cs.transA, cs.transB, a, b, c, reps)
					if err != nil {
						return nil, fmt.Errorf("bench: %s %s n=%d: %w", k.name, cs.name, n, err)
					}
					if pass == 0 || sec < row.Seconds {
						row.Seconds = sec
					}
				}
			}
		}
	}
	seedSec := 0.0
	for i := range rows {
		row := &rows[i]
		n := float64(row.N)
		row.GFLOPS = 2 * n * n * n / row.Seconds / 1e9
		if row.Kernel == "seed" {
			seedSec = row.Seconds
		}
		row.Speedup = seedSec / row.Seconds
	}
	return rows, nil
}

// PeakShares sets every row's rate against the widest probe's (peaks from
// KernelPeaks; may be empty): its one-thread reading for a one-thread row,
// its all-threads reading for the others.
func PeakShares(rows []KernelRow, peaks []KernelPeak) {
	if len(peaks) == 0 {
		return
	}
	peak := peaks[len(peaks)-1]
	for i := range rows {
		switch row := &rows[i]; row.threads {
		case 0:
		case 1:
			row.PeakShare = row.GFLOPS / peak.OneThread
		default:
			row.PeakShare = row.GFLOPS / peak.AllThreads
		}
	}
}

// KernelEndToEnd runs a full real-engine SRUMMA multiply (4 ranks, one
// shared-memory node) at each n and reports aggregate GFLOP/s, so the
// kernel-sweep numbers can be compared against what the whole pipeline
// delivers. Speedup is left 0 (no seed-kernel run; the per-task kernel is
// always the current one).
func KernelEndToEnd(ns []int) ([]KernelRow, error) {
	const nprocs = 4
	topo := rt.Topology{NProcs: nprocs, ProcsPerNode: nprocs, DomainSpansMachine: true}
	g, err := grid.Square(nprocs)
	if err != nil {
		return nil, err
	}
	var rows []KernelRow
	for _, n := range ns {
		a := mat.Random(n, n, 33)
		b := mat.Random(n, n, 44)
		d := core.Dims{M: n, N: n, K: n}
		opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect}
		da, db, dc := core.Dists(g, d, opts.Case)
		out := mat.New(n, n)
		durations := make([]float64, nprocs)
		_, err := armci.Run(topo, func(c rt.Ctx) {
			ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
			t0 := c.Now()
			if err := core.Multiply(c, g, d, opts, ga, gb, gc); err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		})
		if err != nil {
			return nil, err
		}
		slowest := slices.Max(durations)
		flops := 2 * float64(n) * float64(n) * float64(n)
		rows = append(rows, KernelRow{
			Kernel:  fmt.Sprintf("srumma-%dp", nprocs),
			Case:    "NN",
			N:       n,
			Seconds: slowest,
			GFLOPS:  flops / slowest / 1e9,
			threads: nprocs,
		})
	}
	return rows, nil
}

// KernelDoc is the BENCH_kernel.json document: this run's rows with the
// environment and FMA peaks they were taken against, and the rows of the
// commit it is compared with.
type KernelDoc struct {
	Env    Env          `json:"env"`
	Peak   []KernelPeak `json:"peak"`
	Kernel []KernelRow  `json:"kernel"`
	Before *KernelDoc   `json:"before,omitempty"`
}

// WriteKernelDoc writes doc to path, carrying the comparison rows over from
// the file it replaces: that file's "before" if it has one, else that
// file's own rows (a record from before this one becomes the "before").
func WriteKernelDoc(path string, doc KernelDoc) error {
	if raw, err := os.ReadFile(path); err == nil {
		var old KernelDoc
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
		if doc.Before = old.Before; doc.Before == nil {
			doc.Before = &old
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// FormatKernel renders the sweep as a table.
func FormatKernel(doc KernelDoc) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Local dgemm kernel sweep: %s, %s, GOMAXPROCS=%d, %s, commit %.12s\n",
		doc.Env.Kernel, doc.Env.CPU, doc.Env.GOMAXPROCS, doc.Env.GoVersion, doc.Env.Commit)
	for _, p := range doc.Peak {
		fmt.Fprintf(&sb, "peak %s: %.1f GFLOP/s on one thread, %.1f on %d\n", p.Probe, p.OneThread, p.AllThreads, doc.Env.GOMAXPROCS)
	}
	fmt.Fprintf(&sb, "%-12s %-4s %6s %12s %10s %8s %6s\n", "kernel", "case", "n", "seconds", "GFLOP/s", "speedup", "peak")
	for _, r := range doc.Kernel {
		speedup, share := "-", "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		if r.PeakShare > 0 {
			share = fmt.Sprintf("%.0f%%", 100*r.PeakShare)
		}
		fmt.Fprintf(&sb, "%-12s %-4s %6d %12.6f %10.2f %8s %6s\n", r.Kernel, r.Case, r.N, r.Seconds, r.GFLOPS, speedup, share)
	}
	return sb.String()
}
