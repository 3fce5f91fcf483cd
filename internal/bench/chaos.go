package bench

// Chaos sweep: the resilience counterpart of the performance figures. Each
// row runs one fault class at one seed on the REAL engine (goroutine
// processes, actual data movement) with the recovery layer active, then
// checks the result against a serial dgemm. The acceptance bar mirrors the
// fault-model contract: every run either recovers to a bit-correct C or
// fails loudly with rank/op context — a hang is caught by the watchdog and
// reported as a failure.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// ChaosClasses are the fault classes the sweep exercises, in report order.
var ChaosClasses = []string{"drop", "delay", "corrupt", "straggle", "crash"}

// ChaosRow is the outcome of one chaos run.
type ChaosRow struct {
	Class     string
	Seed      uint64
	Recovered bool    // run completed and C matches the serial reference
	MaxErr    float64 // worst |C - C_ref| element when the run completed
	Err       string  // loud failure (expected for crash runs), "" otherwise

	Faults    int64 // injected faults seen by this run's ranks
	Retries   int64 // timed-out transfers re-issued
	Refetches int64 // checksum-mismatch re-fetches
	Steals    int64 // tasks planned behind later ones to dodge a straggler
	Degraded  int64 // ranks that fell back to blocking transfers

	Seconds  float64 // chaos-run wall time
	Baseline float64 // fault-free wall time of the same problem
}

// ChaosFaults returns the fault and recovery configuration for one class at
// one seed. Rates are deliberately aggressive — a chaos table with zero
// injected faults proves nothing, nor does a steals column no row can fill:
// straggle runs TestChaosStragglerStealing's settings, two stragglers well
// over a tight latency threshold, so the re-plan around them shows.
func ChaosFaults(class string, seed uint64) (faults.Config, faults.RecoveryConfig, error) {
	cfg := faults.Config{Seed: seed}
	var recov faults.RecoveryConfig
	switch class {
	case "drop":
		cfg.DropRate = 0.15
	case "delay":
		cfg.DelayRate = 0.2
		cfg.DelayUnit = 500 * time.Microsecond
	case "corrupt":
		cfg.CorruptRate = 0.15
	case "straggle":
		cfg.Stragglers = 2
		cfg.StragglerDelay = 4 * time.Millisecond
		recov.StragglerLatency = 500 * time.Microsecond
	case "crash":
		cfg.Crash = true
		cfg.CrashOpSpan = 2 // early enough to land within small runs
	default:
		return cfg, recov, fmt.Errorf("bench: unknown chaos class %q", class)
	}
	return cfg, recov, nil
}

// chaosMultiply runs one real-engine SRUMMA multiply of a x b, under the
// fault plan and recovery layer when cfg is non-nil, and returns C with
// summed stats and the slowest rank's wall time.
func chaosMultiply(topo rt.Topology, g *grid.Grid, a, b *mat.Matrix, cfg *faults.Config, recov faults.RecoveryConfig) (*mat.Matrix, rt.Stats, float64, error) {
	d := core.Dims{M: a.Rows, N: b.Cols, K: a.Cols}
	// Fine task granularity so the run issues enough one-sided ops for the
	// per-op fault rates to land.
	opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: 8}
	da, db, dc := core.Dists(g, d, opts.Case)
	out := mat.New(d.M, d.N)
	durations := make([]float64, topo.NProcs)
	body := func(c rt.Ctx) {
		ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
		t0 := c.Now()
		if err := core.Multiply(c, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		durations[c.Rank()] = c.Now() - t0
	}

	var stats []*rt.Stats
	var err error
	if cfg != nil {
		plan, perr := faults.NewPlan(*cfg, topo.NProcs)
		if perr != nil {
			return nil, rt.Stats{}, 0, perr
		}
		stats, err = armci.RunWithTimeout(topo, 30*time.Second, func(c rt.Ctx) {
			body(faults.Resilient(faults.Inject(c, plan, nil), recov))
		})
	} else {
		stats, err = armci.Run(topo, body)
	}
	if err != nil {
		return nil, rt.Stats{}, 0, err
	}
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	return out, sum, slices.Max(durations), nil
}

// Chaos runs every fault class at every seed on an nprocs-process cluster
// (ppn ranks per shared-memory node) multiplying n x n matrices, and
// reports recovery outcomes with the resilience counters.
func Chaos(n, nprocs, ppn int, seeds []uint64) ([]ChaosRow, error) {
	topo := rt.Topology{NProcs: nprocs, ProcsPerNode: ppn}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	g, err := grid.Square(nprocs)
	if err != nil {
		return nil, err
	}
	a := mat.Random(n, n, 101)
	b := mat.Random(n, n, 202)
	want := mat.New(n, n)
	if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
		return nil, err
	}
	tol := 1e-10 * float64(n)

	// Fault-free baseline for the overhead column.
	_, _, baseline, err := chaosMultiply(topo, g, a, b, nil, faults.RecoveryConfig{})
	if err != nil {
		return nil, err
	}

	var rows []ChaosRow
	for _, class := range ChaosClasses {
		for _, seed := range seeds {
			fc, recov, err := ChaosFaults(class, seed)
			if err != nil {
				return nil, err
			}
			row := ChaosRow{Class: class, Seed: seed, Baseline: baseline}
			got, stats, secs, err := chaosMultiply(topo, g, a, b, &fc, recov)
			if err != nil {
				// Loud failure: the contract for unrecoverable faults
				// (expected for the crash class).
				row.Err = err.Error()
			} else {
				row.MaxErr = mat.MaxAbsDiff(got, want)
				row.Recovered = row.MaxErr <= tol
				row.Faults = stats.FaultsInjected
				row.Retries = stats.FaultRetries
				row.Refetches = stats.FaultRefetches
				row.Steals = stats.StragglerSteals
				row.Degraded = stats.DegradedMode
				row.Seconds = secs
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatChaos renders the chaos sweep as a table.
func FormatChaos(n, nprocs int, rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos sweep: real engine, N=%d, P=%d (recovery layer active)\n", n, nprocs)
	fmt.Fprintf(&b, "%-9s %6s %-10s %7s %8s %9s %7s %9s %9s  %s\n",
		"class", "seed", "outcome", "faults", "retries", "refetches", "steals", "degraded", "max|err|", "overhead")
	for _, r := range rows {
		outcome := "RECOVERED"
		if r.Err != "" {
			outcome = "FAILED*"
		} else if !r.Recovered {
			outcome = "WRONG-C"
		}
		overhead := "-"
		if r.Err == "" && r.Baseline > 0 && r.Seconds > 0 {
			overhead = fmt.Sprintf("%.2fx", r.Seconds/r.Baseline)
		}
		fmt.Fprintf(&b, "%-9s %6d %-10s %7d %8d %9d %7d %9d %9.1e  %s\n",
			r.Class, r.Seed, outcome, r.Faults, r.Retries, r.Refetches, r.Steals, r.Degraded, r.MaxErr, overhead)
		if r.Err != "" {
			fmt.Fprintf(&b, "          %6s   error: %s\n", "", r.Err)
		}
	}
	b.WriteString("FAILED* = loud error with rank/op context (the contract for unrecoverable faults, e.g. crash)\n")
	return b.String()
}
