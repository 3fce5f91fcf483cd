// Package bench is the experiment harness: it reproduces every figure and
// table of the paper's evaluation (Section 4) on the virtual-time engine,
// and provides the workload generators, parameter sweeps and table printers
// shared by the benchmarks in bench_test.go and the cmd/srumma-bench CLI.
package bench

import (
	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

// MatmulConfig describes one simulated matrix-multiplication run.
type MatmulConfig struct {
	Platform machine.Profile
	Procs    int
	Dims     core.Dims
	Case     core.Case
	Alg      string

	// SRUMMA knobs (ablations / Figure 9 & 5 protocol variants).
	ForceFlavor     *core.Flavor // nil = platform default
	SingleBuffer    bool         // blocking gets
	NoDiagonalShift bool
	NoSharedFirst   bool
	MaxTaskK        int // task-granularity cap (0 = whole owner blocks)

	// pdgemm/SUMMA panel width.
	NB int

	// DisableZeroCopy turns the platform's zero-copy RMA off (Figure 9).
	DisableZeroCopy bool
}

// MatmulResult is the outcome of one simulated run.
type MatmulResult struct {
	Seconds float64  // slowest rank's time through Multiply
	GFLOPS  float64  // aggregate 2MNK / time
	Stats   rt.Stats // summed over ranks
}

// RunMatmul simulates one configuration and reports time/GFLOP/s.
func RunMatmul(cfg MatmulConfig) (MatmulResult, error) {
	prof := cfg.Platform
	if cfg.DisableZeroCopy {
		prof.ZeroCopy = false
		if prof.HostCopyBW <= 0 {
			prof.HostCopyBW = prof.NetBW / 2
		}
	}
	g, err := grid.Square(cfg.Procs)
	if err != nil {
		return MatmulResult{}, err
	}
	o := algs.Options{NB: cfg.NB}
	o.Options = core.Options{
		Case:            cfg.Case,
		Flavor:          algs.FlavorFor(cfg.Platform),
		SingleBuffer:    cfg.SingleBuffer,
		NoDiagonalShift: cfg.NoDiagonalShift,
		NoSharedFirst:   cfg.NoSharedFirst,
		MaxTaskK:        cfg.MaxTaskK,
	}
	if cfg.ForceFlavor != nil {
		o.Flavor = *cfg.ForceFlavor
	}
	row, err := algs.Resolve(cfg.Alg, g, cfg.Dims, o)
	if err != nil {
		return MatmulResult{}, err
	}
	durations := make([]float64, cfg.Procs)
	body := func(c rt.Ctx) {
		ga, gb, gc := row.Alloc(c)
		t0 := c.Now()
		if err := row.Multiply(c, ga, gb, gc); err != nil {
			panic(err)
		}
		durations[c.Rank()] = c.Now() - t0
	}

	res, err := simrt.Run(prof, cfg.Procs, body)
	if err != nil {
		return MatmulResult{}, err
	}
	out := MatmulResult{}
	for _, d := range durations {
		if d > out.Seconds {
			out.Seconds = d
		}
	}
	for _, s := range res.Stats {
		out.Stats.Add(s)
	}
	flops := 2 * float64(cfg.Dims.M) * float64(cfg.Dims.N) * float64(cfg.Dims.K)
	if out.Seconds > 0 {
		out.GFLOPS = flops / out.Seconds / 1e9
	}
	return out, nil
}
