package bench

import (
	"testing"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

// TestExperimentsClaimAltixDirectWinsAtScale locks in the EXPERIMENTS.md
// claim that the Altix direct-access flavor overtakes the copy flavor as
// the processor count grows (paper Figure 5 discussion).
func TestExperimentsClaimAltixDirectWinsAtScale(t *testing.T) {
	g := func(fl core.Flavor) float64 {
		fl2 := fl
		res, err := RunMatmul(MatmulConfig{
			Platform: machine.SGIAltix(), Procs: 64,
			Dims: core.Dims{M: 2000, N: 2000, K: 2000},
			Alg:  algs.SRUMMA, ForceFlavor: &fl2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GFLOPS
	}
	direct, cp := g(core.FlavorDirect), g(core.FlavorCopy)
	t.Logf("altix P=64: direct %.1f vs copy %.1f", direct, cp)
	if direct <= cp {
		t.Errorf("direct (%.1f) should beat copy (%.1f) at P=64 on the Altix", direct, cp)
	}
}

// TestExperimentsClaimDiagonalShiftContention locks in the 2x contention
// win on the rectangular Linux configuration.
func TestExperimentsClaimDiagonalShiftContention(t *testing.T) {
	g := func(off bool) float64 {
		res, err := RunMatmul(MatmulConfig{
			Platform: machine.LinuxMyrinet(), Procs: 128,
			Dims: core.Dims{M: 4000, N: 4000, K: 1000},
			Alg:  algs.SRUMMA, NoDiagonalShift: off,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GFLOPS
	}
	on, off := g(false), g(true)
	t.Logf("linux m4000k1000 P=128: shift on %.1f vs off %.1f", on, off)
	if on < 1.8*off {
		t.Errorf("diagonal shift should be worth ~2x here: on %.1f, off %.1f", on, off)
	}
}

// TestAltixDirectGapGrowsWithProcs locks in the paper's Figure-5 remark
// that the direct-vs-copy gap on the Altix widens in direct access's favor
// as the processor count grows.
func TestAltixDirectGapGrowsWithProcs(t *testing.T) {
	gap := func(procs int) float64 {
		g := func(fl core.Flavor) float64 {
			fl2 := fl
			res, err := RunMatmul(MatmulConfig{
				Platform: machine.SGIAltix(), Procs: procs,
				Dims: core.Dims{M: 2000, N: 2000, K: 2000},
				Alg:  algs.SRUMMA, ForceFlavor: &fl2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.GFLOPS
		}
		return g(core.FlavorDirect) / g(core.FlavorCopy)
	}
	g16, g64 := gap(16), gap(64)
	t.Logf("altix direct/copy gap: P=16 %.3f, P=64 %.3f", g16, g64)
	if g64 <= g16 {
		t.Errorf("gap should grow with procs: %.3f (P=16) vs %.3f (P=64)", g16, g64)
	}
}
