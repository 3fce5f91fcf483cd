// Package bench is the experiment harness: it reproduces every figure and
// table of the paper's evaluation (Section 4) on the virtual-time engine,
// and provides the workload generators, parameter sweeps and table printers
// shared by the benchmarks in bench_test.go and the cmd/srumma-bench CLI.
package bench

import (
	"fmt"

	"srumma/internal/cannon"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/fox"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/pdgemm"
	"srumma/internal/rt"
	"srumma/internal/simrt"
	"srumma/internal/summa"
)

// Algorithm names accepted by MatmulConfig.
const (
	AlgSRUMMA = "srumma"
	AlgPdgemm = "pdgemm"
	AlgSUMMA  = "summa"
	AlgCannon = "cannon"
	AlgFox    = "fox"
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

	// pdgemm/SUMMA knobs.
	NB            int
	BinomialBcast bool

	// DisableZeroCopy turns the platform's zero-copy RMA off (Figure 9).
	DisableZeroCopy bool
}

// MatmulResult is the outcome of one simulated run.
type MatmulResult struct {
	Seconds float64  // slowest rank's time through Multiply
	GFLOPS  float64  // aggregate 2MNK / time
	Stats   rt.Stats // summed over ranks
}

// flavorFor picks the shared-memory flavor the paper prescribes per
// platform: direct access where remote memory is cacheable, copy-based
// where it is not (§3.2).
func flavorFor(p machine.Profile) core.Flavor {
	if p.DomainSpansMachine && !p.RemoteCacheable {
		return core.FlavorCopy
	}
	return core.FlavorDirect
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
	durations := make([]float64, cfg.Procs)

	body := func(c rt.Ctx) {
		switch cfg.Alg {
		case AlgSRUMMA:
			opts := core.Options{
				Case:            cfg.Case,
				Flavor:          flavorFor(cfg.Platform),
				SingleBuffer:    cfg.SingleBuffer,
				NoDiagonalShift: cfg.NoDiagonalShift,
				NoSharedFirst:   cfg.NoSharedFirst,
				MaxTaskK:        cfg.MaxTaskK,
			}
			if cfg.ForceFlavor != nil {
				opts.Flavor = *cfg.ForceFlavor
			}
			da, db, dc := core.Dists(g, cfg.Dims, cfg.Case)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			t0 := c.Now()
			if err := core.Multiply(c, g, cfg.Dims, opts, ga, gb, gc); err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		case AlgPdgemm:
			opts := pdgemm.Options{Case: cfg.Case, NB: cfg.NB, BinomialBcast: cfg.BinomialBcast}
			da, db, dc, err := pdgemm.Dists(g, cfg.Dims, opts.Case, opts.NB)
			if err != nil {
				panic(err)
			}
			ga := driver.AllocCyclic(c, da)
			gb := driver.AllocCyclic(c, db)
			gc := driver.AllocCyclic(c, dc)
			t0 := c.Now()
			if err := pdgemm.Multiply(c, g, cfg.Dims, opts, ga, gb, gc); err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		case AlgSUMMA:
			opts := summa.Options{Case: cfg.Case, NB: cfg.NB, BinomialBcast: cfg.BinomialBcast}
			da, db, dc := summa.Dists(g, cfg.Dims, opts.Case)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			t0 := c.Now()
			if err := summa.Multiply(c, g, cfg.Dims, opts, ga, gb, gc); err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		case AlgCannon:
			da, db, dc := cannon.Dists(g, cfg.Dims)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			t0 := c.Now()
			if err := cannon.Multiply(c, g, cfg.Dims, ga, gb, gc); err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		case AlgFox:
			da, db, dc := fox.Dists(g, cfg.Dims)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			t0 := c.Now()
			if err := fox.Multiply(c, g, cfg.Dims, ga, gb, gc); err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		default:
			panic(fmt.Sprintf("bench: unknown algorithm %q", cfg.Alg))
		}
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
