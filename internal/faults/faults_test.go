package faults_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/faults"
	"srumma/internal/rt"
)

func TestConfigValidate(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5} {
		if _, err := faults.NewPlan(faults.Config{BadBlockRate: rate}, 4); err == nil {
			t.Errorf("bad-block rate %g: want error, got nil", rate)
		}
	}
	if _, err := faults.NewPlan(faults.Config{BadBlockRate: 1, Crash: true, ComputeCrash: true}, 4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := faults.NewPlan(faults.Config{}, 0); err == nil {
		t.Error("0 ranks: want error, got nil")
	}
}

// gemmSchedule materializes the first ops entries of every rank's gemm
// fault stream.
func gemmSchedule(p *faults.Plan, ops int) [][]faults.Fault {
	out := make([][]faults.Fault, p.NProcs())
	for r := range out {
		for op := 0; op < ops; op++ {
			out[r] = append(out[r], p.AtGemm(r, op))
		}
	}
	return out
}

// TestPlanDeterminism is the replay contract at the planner level: the
// schedule is a pure function of (Config, nprocs).
func TestPlanDeterminism(t *testing.T) {
	cfg := faults.Config{Seed: 42, BadBlockRate: 0.3, Crash: true, ComputeCrash: true}
	p1, err := faults.NewPlan(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := faults.NewPlan(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gemmSchedule(p1, 128), gemmSchedule(p2, 128)) {
		t.Error("same config, same topology: gemm schedules differ")
	}
	r1, o1 := p1.CrashPoint()
	r2, o2 := p2.CrashPoint()
	if r1 != r2 || o1 != o2 {
		t.Errorf("crash point not deterministic: (%d,%d) vs (%d,%d)", r1, o1, r2, o2)
	}
	r1, o1 = p1.ComputeCrashPoint()
	r2, o2 = p2.ComputeCrashPoint()
	if r1 != r2 || o1 != o2 {
		t.Errorf("compute crash point not deterministic: (%d,%d) vs (%d,%d)", r1, o1, r2, o2)
	}

	// And AtGemm is pure: evaluation order must not matter.
	if f1, f2 := p1.AtGemm(3, 77), p1.AtGemm(3, 77); f1 != f2 {
		t.Errorf("AtGemm not pure: %+v vs %+v", f1, f2)
	}

	// A different seed plans a different schedule (at this rate, 8x128
	// identical rolls would be astronomically unlikely).
	cfg.Seed = 43
	p3, err := faults.NewPlan(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(gemmSchedule(p1, 128), gemmSchedule(p3, 128)) {
		t.Error("different seeds produced identical gemm schedules")
	}
}

func TestPlanRates(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want faults.Class
	}{{1, faults.BadBlock}, {0, faults.None}} {
		p, err := faults.NewPlan(faults.Config{Seed: 7, BadBlockRate: tc.rate}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			for op := 0; op < 64; op++ {
				if f := p.AtGemm(r, op); f.Class != tc.want {
					t.Fatalf("BadBlockRate=%g: rank %d gemm %d got %v", tc.rate, r, op, f.Class)
				}
				if f := p.At(r, op); f.Class != faults.None {
					t.Fatalf("no crash planned: rank %d op %d got %v", r, op, f.Class)
				}
			}
		}
	}
}

func TestCrashPointBounds(t *testing.T) {
	p, err := faults.NewPlan(faults.Config{Seed: 9, Crash: true, CrashOpSpan: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, op := p.CrashPoint()
	if r < 0 || r >= 3 || op < 0 || op >= 5 {
		t.Errorf("crash point (%d,%d) outside rank [0,3) x op [0,5)", r, op)
	}
	p, err = faults.NewPlan(faults.Config{Seed: 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r, op := p.CrashPoint(); r != -1 || op != -1 {
		t.Errorf("no crash planned but CrashPoint = (%d,%d)", r, op)
	}
}

// TestInjectorSeesContiguousTransfers: the injector overrides the strided
// pair, and rt.Get / rt.Put are built on the pair — so contiguous transfers
// consume one-sided op indices like any other, and the planned crash fires
// on the op the plan names, whichever kind it is.
func TestInjectorSeesContiguousTransfers(t *testing.T) {
	const n = 8
	plan, err := faults.NewPlan(faults.Config{Seed: 3, Crash: true, CrashOpSpan: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, wantOp := plan.CrashPoint()
	_, err = armci.RunWithTimeout(rt.Topology{NProcs: 2, ProcsPerNode: 1}, 10*time.Second, func(raw rt.Ctx) {
		c := faults.Inject(raw, plan, nil)
		g := c.Malloc(n)
		c.Barrier()
		buf := c.LocalBuf(n)
		peer := 1 - c.Rank()
		for op := 0; op <= wantOp; op++ {
			if op%2 == 0 {
				rt.Get(c, g, peer, 0, n, buf, 0)
			} else {
				rt.Put(c, buf, 0, n, g, peer, 0)
			}
		}
	})
	var ce faults.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want the planted CrashError, got %v", err)
	}
	if ce.Rank != wantRank || ce.Op != wantOp || ce.Compute {
		t.Errorf("CrashError = %+v, want rank %d at one-sided op %d", ce, wantRank, wantOp)
	}
}

// TestWrappersKeepCapabilitiesDiscoverable: rt.Find is the one walk down a
// wrapper chain, and the injector must not hide what the engine beneath
// provides: in-place operand adoption and buffer recycling.
func TestWrappersKeepCapabilitiesDiscoverable(t *testing.T) {
	plan, err := faults.NewPlan(faults.Config{Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = armci.Run(rt.Topology{NProcs: 2, ProcsPerNode: 2}, func(raw rt.Ctx) {
		if raw.Rank() != 0 {
			return
		}
		c := faults.Inject(raw, plan, nil)
		for _, tc := range []struct {
			capability string
			found      bool
		}{
			{"rt.Adopter", rt.Find[rt.Adopter](c) != nil},
			{"rt.BufferReleaser", rt.Find[rt.BufferReleaser](c) != nil},
		} {
			if !tc.found {
				t.Errorf("%s not found through Inject(engine)", tc.capability)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
