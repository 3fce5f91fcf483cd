package bench

// These tests lock in the *shape* of the paper's results: who wins, in
// which direction each protocol feature points, and where the crossovers
// fall. They run reduced sweeps so `go test` stays fast; the full-scale
// regeneration lives in cmd/srumma-bench and the root bench_test.go.

import (
	"testing"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

func TestSRUMMABeatsPdgemmEverywhere(t *testing.T) {
	// Figure 10's headline: SRUMMA outperforms pdgemm on every platform,
	// with the largest gains on the shared-memory systems.
	type point struct {
		prof     machine.Profile
		n, procs int
		minRatio float64
	}
	points := []point{
		{machine.LinuxMyrinet(), 2000, 16, 1.05},
		{machine.IBMSP(), 2000, 64, 1.05},
		{machine.CrayX1(), 2000, 16, 1.5},
		{machine.SGIAltix(), 2000, 16, 1.5},
		{machine.SGIAltix(), 1000, 64, 2.5}, // small N, many procs: biggest gap
	}
	for _, pt := range points {
		d := core.Dims{M: pt.n, N: pt.n, K: pt.n}
		sr, err := RunMatmul(MatmulConfig{Platform: pt.prof, Procs: pt.procs, Dims: d, Alg: algs.SRUMMA})
		if err != nil {
			t.Fatalf("%s: %v", pt.prof.Name, err)
		}
		pd, err := RunMatmul(MatmulConfig{Platform: pt.prof, Procs: pt.procs, Dims: d, Alg: algs.Pdgemm})
		if err != nil {
			t.Fatalf("%s: %v", pt.prof.Name, err)
		}
		ratio := sr.GFLOPS / pd.GFLOPS
		if ratio < pt.minRatio {
			t.Errorf("%s N=%d P=%d: SRUMMA/pdgemm = %.2f (%.1f vs %.1f GF), want >= %.2f",
				pt.prof.Name, pt.n, pt.procs, ratio, sr.GFLOPS, pd.GFLOPS, pt.minRatio)
		}
	}
}

func TestSharedMemoryGapGrowsWithProcs(t *testing.T) {
	// Paper: "the most profound gains on the two shared memory systems" and
	// the Altix ratio grows toward 20x as P grows at fixed N.
	prof := machine.SGIAltix()
	d := core.Dims{M: 1000, N: 1000, K: 1000}
	ratio := func(p int) float64 {
		sr, err := RunMatmul(MatmulConfig{Platform: prof, Procs: p, Dims: d, Alg: algs.SRUMMA})
		if err != nil {
			t.Fatal(err)
		}
		pd, err := RunMatmul(MatmulConfig{Platform: prof, Procs: p, Dims: d, Alg: algs.Pdgemm})
		if err != nil {
			t.Fatal(err)
		}
		return sr.GFLOPS / pd.GFLOPS
	}
	if r16, r128 := ratio(16), ratio(128); r128 <= r16 {
		t.Errorf("Altix N=1000 ratio should grow with procs: P=16 %.2f, P=128 %.2f", r16, r128)
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5(1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		fl := "direct"
		if r.Flavor == core.FlavorCopy {
			fl = "copy"
		}
		byKey[r.Platform+"/"+r.Case.String()+"/"+fl] = r.GFLOPS
	}
	// Cray X1: copy-based must beat direct access decisively.
	if byKey["cray-x1/C=AB/copy"] < 2*byKey["cray-x1/C=AB/direct"] {
		t.Errorf("X1 copy (%.1f) should dominate direct (%.1f)",
			byKey["cray-x1/C=AB/copy"], byKey["cray-x1/C=AB/direct"])
	}
	// Altix: direct access competitive with copy (within 15%).
	dir, cp := byKey["sgi-altix/C=AB/direct"], byKey["sgi-altix/C=AB/copy"]
	if dir < 0.85*cp {
		t.Errorf("Altix direct (%.1f) should be competitive with copy (%.1f)", dir, cp)
	}
}

func TestFig6Shape(t *testing.T) {
	series, _, err := Fig6([]int{4 << 10, 256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range series["mpi"] {
		if series["armci-get"][i].MBps <= series["mpi"][i].MBps {
			t.Errorf("X1 get (%.0f MB/s) must beat MPI (%.0f MB/s) at %d bytes",
				series["armci-get"][i].MBps, series["mpi"][i].MBps, series["mpi"][i].Bytes)
		}
		if series["shmem"][i].MBps < series["armci-get"][i].MBps {
			t.Errorf("X1 shmem (%.0f) should be >= get (%.0f) at %d bytes",
				series["shmem"][i].MBps, series["armci-get"][i].MBps, series["mpi"][i].Bytes)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	sizes := []int{512, 8 << 10, 256 << 10, 1 << 20}
	series, _, err := Fig7(sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []string{"ibm-sp", "linux-myrinet"} {
		armci := series[plat+"/armci"]
		mpi := series[plat+"/mpi"]
		// ARMCI overlap stays >= 95% at every size.
		for _, p := range armci {
			if p.OverlapPct < 95 {
				t.Errorf("%s ARMCI overlap %.1f%% at %d bytes", plat, p.OverlapPct, p.Bytes)
			}
		}
		// MPI overlaps well below the eager threshold and collapses above.
		if mpi[0].OverlapPct < 60 {
			t.Errorf("%s MPI eager overlap only %.1f%%", plat, mpi[0].OverlapPct)
		}
		if mpi[len(mpi)-1].OverlapPct > 20 {
			t.Errorf("%s MPI rendezvous overlap %.1f%%, want collapse", plat, mpi[len(mpi)-1].OverlapPct)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	sizes := []int{512, 1 << 20}
	series, _, err := Fig8(sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []string{"ibm-sp", "linux-myrinet"} {
		get := series[plat+"/armci-get"]
		mpi := series[plat+"/mpi"]
		// Short messages: get pays request+reply, MPI wins.
		if get[0].MBps >= mpi[0].MBps {
			t.Errorf("%s at 512B: get %.1f should trail MPI %.1f", plat, get[0].MBps, mpi[0].MBps)
		}
		// Long messages: get wins.
		if get[1].MBps <= mpi[1].MBps {
			t.Errorf("%s at 1MB: get %.1f should beat MPI %.1f", plat, get[1].MBps, mpi[1].MBps)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	rows, err := Fig9([]int{1000}, 16)
	if err != nil {
		t.Fatal(err)
	}
	get := func(zc, nb bool) float64 {
		for _, r := range rows {
			if r.ZeroCopy == zc && r.NonBlocking == nb {
				return r.GFLOPS
			}
		}
		t.Fatal("row missing")
		return 0
	}
	best := get(true, true)
	worst := get(false, false)
	// Best configuration strictly wins; the worst trails every other within
	// a small tolerance (blocking vs nonblocking is a wash once zero-copy
	// is off and the steal effect dominates).
	if best <= get(true, false) || best <= get(false, true) {
		t.Errorf("fig9: nb+zcopy must be best: nb+zc=%.1f b+zc=%.1f nb+c=%.1f b+c=%.1f",
			get(true, true), get(true, false), get(false, true), get(false, false))
	}
	if worst > get(true, false)*1.02 || worst > get(false, true)*1.02 {
		t.Errorf("fig9: block+copy should be worst: nb+zc=%.1f b+zc=%.1f nb+c=%.1f b+c=%.1f",
			get(true, true), get(true, false), get(false, true), get(false, false))
	}
	// Paper: the nonblocking benefit is amplified by zero-copy.
	gainZC := get(true, true) / get(true, false)
	gainNC := get(false, true) / get(false, false)
	if gainZC <= gainNC {
		t.Errorf("nonblocking gain should be larger with zero-copy: %.2f vs %.2f", gainZC, gainNC)
	}
}

func TestTable1AllRowsSRUMMAWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 in short mode")
	}
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SRUMMA <= r.Pdgemm {
			t.Errorf("%s: SRUMMA %.1f <= pdgemm %.1f", r.Label, r.SRUMMA, r.Pdgemm)
		}
		// Modeled numbers should land within 3x of the paper's (we do not
		// match the authors' testbed, only the regime).
		if r.SRUMMA < r.PaperSRUMMA/3 || r.SRUMMA > r.PaperSRUMMA*3 {
			t.Errorf("%s: SRUMMA %.1f vs paper %.1f (out of 3x band)", r.Label, r.SRUMMA, r.PaperSRUMMA)
		}
	}
}

func TestAblationsAllHurt(t *testing.T) {
	rows, err := Ablations(2000, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ablated > r.Full*1.001 {
			t.Errorf("disabling %s helped: %.1f -> %.1f GF", r.Name, r.Full, r.Ablated)
		}
	}
	// Zero-copy and double buffering are the paper's headline mechanisms;
	// they must show a real cost on the SP-style platform.
	for _, r := range rows {
		if (r.Name == "zero-copy" || r.Name == "double-buffer") && r.Ablated > r.Full*0.995 {
			t.Errorf("ablation %s shows no effect: %.2f vs %.2f", r.Name, r.Full, r.Ablated)
		}
	}
}

func TestKLAPIProjectionHelps(t *testing.T) {
	// The paper's §4.1 prediction: zero-copy LAPI (KLAPI) should improve
	// SRUMMA on the SP at every size, most where communication dominates.
	rows, err := KLAPI([]int{1000, 4000}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.KLAPI <= r.LAPI {
			t.Errorf("N=%d: KLAPI %.1f should beat LAPI %.1f", r.N, r.KLAPI, r.LAPI)
		}
	}
	// The gain is a protocol effect, not a model blow-up: a few percent,
	// never an order of magnitude.
	for _, r := range rows {
		if g := r.KLAPI / r.LAPI; g > 1.25 {
			t.Errorf("N=%d: KLAPI gain %.2fx implausibly large", r.N, g)
		}
	}
}

func TestModelPredictsSimWithinFactor(t *testing.T) {
	prof := machine.LinuxMyrinet()
	rows, err := ModelCompare(prof, []int{2000}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The overlapped prediction is a lower bound-ish estimate; the
		// simulation must land between it and ~2.5x above (scheduling,
		// contention, barriers).
		if r.Simulated < r.Predicted*0.9 || r.Simulated > r.PredictedNoOverlap*2.5 {
			t.Errorf("N=%d P=%d: sim %.4g outside [%.4g, %.4g]",
				r.N, r.P, r.Simulated, r.Predicted*0.9, r.PredictedNoOverlap*2.5)
		}
	}
}

func TestIsoefficiencyRoughlyFlat(t *testing.T) {
	rows, err := Isoefficiency(machine.LinuxMyrinet(), 400, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rows[0].Efficiency, rows[0].Efficiency
	for _, r := range rows {
		if r.Efficiency < lo {
			lo = r.Efficiency
		}
		if r.Efficiency > hi {
			hi = r.Efficiency
		}
	}
	if lo < 0.3 || hi/lo > 2 {
		t.Errorf("efficiency not flat under isoefficiency scaling: [%.2f, %.2f]", lo, hi)
	}
}

func TestCannonComparableToSRUMMA(t *testing.T) {
	// §2.1: SRUMMA's efficiency matches Cannon's class. On a cluster they
	// should land within 2x of each other.
	d := core.Dims{M: 1600, N: 1600, K: 1600}
	sr, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 16, Dims: d, Alg: algs.SRUMMA})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 16, Dims: d, Alg: algs.Cannon})
	if err != nil {
		t.Fatal(err)
	}
	if sr.GFLOPS < ca.GFLOPS/2 || sr.GFLOPS > ca.GFLOPS*4 {
		t.Errorf("SRUMMA %.1f vs Cannon %.1f outside comparable band", sr.GFLOPS, ca.GFLOPS)
	}
	fx, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 16, Dims: d, Alg: algs.Fox})
	if err != nil {
		t.Fatal(err)
	}
	if fx.GFLOPS < ca.GFLOPS/3 || fx.GFLOPS > ca.GFLOPS*3 {
		t.Errorf("Fox %.1f vs Cannon %.1f diverge", fx.GFLOPS, ca.GFLOPS)
	}
}

func TestSummaTracksPdgemm(t *testing.T) {
	// SUMMA-on-block and pdgemm (SUMMA-on-cyclic) are the same algorithm on
	// different layouts; times should be within 2x.
	d := core.Dims{M: 1600, N: 1600, K: 1600}
	su, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 16, Dims: d, Alg: algs.SUMMA})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 16, Dims: d, Alg: algs.Pdgemm})
	if err != nil {
		t.Fatal(err)
	}
	if su.GFLOPS < pd.GFLOPS/2 || su.GFLOPS > pd.GFLOPS*2 {
		t.Errorf("SUMMA %.1f vs pdgemm %.1f diverge", su.GFLOPS, pd.GFLOPS)
	}
}

func TestRunMatmulValidation(t *testing.T) {
	if _, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 0, Dims: core.Dims{M: 8, N: 8, K: 8}, Alg: algs.SRUMMA}); err == nil {
		t.Error("expected error for 0 procs")
	}
	if _, err := RunMatmul(MatmulConfig{Platform: machine.LinuxMyrinet(), Procs: 4, Dims: core.Dims{M: 64, N: 64, K: 64}, Alg: "nosuch"}); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := MatmulConfig{Platform: machine.IBMSP(), Procs: 32, Dims: core.Dims{M: 800, N: 800, K: 800}, Alg: algs.SRUMMA}
	a, err := RunMatmul(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatmul(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.GFLOPS != b.GFLOPS {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestModernClusterOrderingHolds(t *testing.T) {
	// The paper's conclusion, extrapolated: on a modern RDMA cluster SRUMMA
	// must still beat pdgemm, by a smaller factor than on the 2003 systems.
	prof := machine.ModernCluster()
	d := core.Dims{M: 8000, N: 8000, K: 8000}
	sr, err := RunMatmul(MatmulConfig{Platform: prof, Procs: 256, Dims: d, Alg: algs.SRUMMA})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := RunMatmul(MatmulConfig{Platform: prof, Procs: 256, Dims: d, Alg: algs.Pdgemm})
	if err != nil {
		t.Fatal(err)
	}
	ratio := sr.GFLOPS / pd.GFLOPS
	t.Logf("modern cluster N=8000 P=256: srumma %.0f vs pdgemm %.0f (%.2fx)", sr.GFLOPS, pd.GFLOPS, ratio)
	if ratio <= 1 {
		t.Errorf("SRUMMA should still win on modern hardware: %.2fx", ratio)
	}
	if ratio > 5 {
		t.Errorf("modern ratio %.2fx implausibly large (networks caught up)", ratio)
	}
}
