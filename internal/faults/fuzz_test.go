package faults_test

// Fuzzing the fault planner: for ARBITRARY (seed, topology, op-count,
// rate, crash points) the plan must be a valid, deterministic, replayable
// schedule — the property every chaos test and every post-mortem replay
// rests on.

import (
	"math"
	"testing"

	"srumma/internal/faults"
)

func FuzzPlan(f *testing.F) {
	f.Add(uint64(1), 4, 32, 0.1, 4, false, false)
	f.Add(uint64(0), 1, 1, 0.0, 0, false, false)
	f.Add(uint64(0xdeadbeef), 64, 256, 0.9, 7, true, true)
	f.Add(uint64(42), 6, 100, 1.0, 100, true, false)
	f.Fuzz(func(t *testing.T, seed uint64, nprocs, ops int, badBlock float64, span int, crash, computeCrash bool) {
		nprocs = 1 + abs(nprocs)%64
		ops = abs(ops) % 256
		if math.IsNaN(badBlock) || math.IsInf(badBlock, 0) {
			badBlock = 0
		}
		cfg := faults.Config{
			Seed:               seed,
			Crash:              crash,
			CrashOpSpan:        abs(span) % 64,
			BadBlockRate:       math.Mod(math.Abs(badBlock), 1),
			ComputeCrash:       computeCrash,
			ComputeCrashOpSpan: abs(span) % 32,
		}
		p1, err := faults.NewPlan(cfg, nprocs)
		if err != nil {
			t.Fatalf("sanitized config rejected: %v (cfg %+v)", err, cfg)
		}
		p2, err := faults.NewPlan(cfg, nprocs)
		if err != nil {
			t.Fatal(err)
		}

		// Replay: two plans from the same inputs are the same schedule, and
		// re-evaluating any entry gives the same answer.
		cr, cop := p1.CrashPoint()
		gr, gop := p1.ComputeCrashPoint()
		for r := 0; r < nprocs; r++ {
			for op := 0; op < ops; op++ {
				at, gemm := p1.At(r, op), p1.AtGemm(r, op)
				if at != p2.At(r, op) || gemm != p2.AtGemm(r, op) || gemm != p1.AtGemm(r, op) {
					t.Fatalf("rank %d op %d: the schedule does not replay", r, op)
				}
				if (at.Class == faults.Crash) != (r == cr && op == cop) || at.Class != faults.None && at.Class != faults.Crash {
					t.Fatalf("rank %d op %d: one-sided fault %v, planned crash at (%d,%d)", r, op, at.Class, cr, cop)
				}
				if gemm.Class == faults.Crash && (r != gr || op != gop) {
					t.Fatalf("compute crash at (%d,%d) but planned point is (%d,%d)", r, op, gr, gop)
				}
				if gemm.Class == faults.BadBlock && (gemm.Bit < 52 || gemm.Bit > 62) {
					t.Fatalf("rank %d gemm %d: bad block flips bit %d, want an exponent bit", r, op, gemm.Bit)
				}
			}
		}

		// Structural invariants.
		for _, pt := range []struct {
			planned  bool
			rank, op int
			span     int
		}{{crash, cr, cop, p1.Config().CrashOpSpan}, {computeCrash, gr, gop, p1.Config().ComputeCrashOpSpan}} {
			if pt.planned {
				if pt.rank < 0 || pt.rank >= nprocs || pt.op < 0 || pt.op >= pt.span {
					t.Fatalf("crash point (%d,%d) outside rank [0,%d) x op [0,%d)", pt.rank, pt.op, nprocs, pt.span)
				}
			} else if pt.rank != -1 || pt.op != -1 {
				t.Fatalf("no crash requested but the plan has one at (%d,%d)", pt.rank, pt.op)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == math.MinInt {
			return 0
		}
		return -x
	}
	return x
}
