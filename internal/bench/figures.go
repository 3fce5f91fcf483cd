package bench

// Per-figure experiment runners. Each Fig*/Table* function regenerates the
// corresponding figure or table of the paper; the Format* helpers print the
// same rows/series the paper reports. bench_test.go wires each one to a
// testing.B benchmark, and cmd/srumma-bench exposes them on the command
// line.

import (
	"fmt"
	"sort"
	"strings"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

// Fig5Row is one bar of Figure 5: direct-access vs copy-based shared-memory
// SRUMMA on the two shared-memory platforms, N=2000, 16 processors, for
// C=AB and C=AtB.
type Fig5Row struct {
	Platform string
	Case     core.Case
	Flavor   core.Flavor
	GFLOPS   float64
}

// Fig5 runs the direct-vs-copy comparison.
func Fig5(n, procs int) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, prof := range []machine.Profile{machine.CrayX1(), machine.SGIAltix()} {
		for _, cs := range []core.Case{core.NN, core.TN} {
			for _, fl := range []core.Flavor{core.FlavorDirect, core.FlavorCopy} {
				fl := fl
				res, err := RunMatmul(MatmulConfig{
					Platform:    prof,
					Procs:       procs,
					Dims:        core.Dims{M: n, N: n, K: n},
					Case:        cs,
					Alg:         algs.SRUMMA,
					ForceFlavor: &fl,
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig5Row{Platform: prof.Name, Case: cs, Flavor: fl, GFLOPS: res.GFLOPS})
			}
		}
	}
	return rows, nil
}

// FormatFig5 renders Figure 5 as a table.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: direct access vs copy, SRUMMA shared-memory flavors\n")
	fmt.Fprintf(&b, "%-12s %-8s %-8s %10s\n", "platform", "case", "flavor", "GFLOP/s")
	for _, r := range rows {
		fl := "direct"
		if r.Flavor == core.FlavorCopy {
			fl = "copy"
		}
		fmt.Fprintf(&b, "%-12s %-8s %-8s %10.1f\n", r.Platform, r.Case, fl, r.GFLOPS)
	}
	return b.String()
}

// Fig6 is the Cray X1 bandwidth comparison: shared-memory copy (shmem),
// ARMCI get and MPI send/receive.
func Fig6(sizes []int) (map[string][]BandwidthPoint, []string, error) {
	prof := machine.CrayX1()
	shm, err := BandwidthMemcpy(prof, sizes)
	if err != nil {
		return nil, nil, err
	}
	get, err := BandwidthGet(prof, sizes)
	if err != nil {
		return nil, nil, err
	}
	mpi, err := BandwidthMPI(prof, sizes)
	if err != nil {
		return nil, nil, err
	}
	series := map[string][]BandwidthPoint{"shmem": shm, "armci-get": get, "mpi": mpi}
	return series, []string{"shmem", "armci-get", "mpi"}, nil
}

// Fig7 measures the potential communication/computation overlap of ARMCI
// nonblocking get vs MPI nonblocking send on the two cluster platforms.
func Fig7(sizes []int) (map[string][]OverlapPoint, []string, error) {
	series := map[string][]OverlapPoint{}
	var order []string
	for _, prof := range []machine.Profile{machine.IBMSP(), machine.LinuxMyrinet()} {
		get, err := OverlapGet(prof, sizes)
		if err != nil {
			return nil, nil, err
		}
		mpi, err := OverlapMPI(prof, sizes)
		if err != nil {
			return nil, nil, err
		}
		series[prof.Name+"/armci"] = get
		series[prof.Name+"/mpi"] = mpi
		order = append(order, prof.Name+"/armci", prof.Name+"/mpi")
	}
	return series, order, nil
}

// Fig8 compares ARMCI get and MPI send/receive bandwidth on the IBM SP and
// the Linux/Myrinet cluster.
func Fig8(sizes []int) (map[string][]BandwidthPoint, []string, error) {
	series := map[string][]BandwidthPoint{}
	var order []string
	for _, prof := range []machine.Profile{machine.IBMSP(), machine.LinuxMyrinet()} {
		get, err := BandwidthGet(prof, sizes)
		if err != nil {
			return nil, nil, err
		}
		mpi, err := BandwidthMPI(prof, sizes)
		if err != nil {
			return nil, nil, err
		}
		series[prof.Name+"/armci-get"] = get
		series[prof.Name+"/mpi"] = mpi
		order = append(order, prof.Name+"/armci-get", prof.Name+"/mpi")
	}
	return series, order, nil
}

// Fig9Row is one curve point of Figure 9: SRUMMA on the Linux/Myrinet
// cluster with zero-copy enabled/disabled x blocking/nonblocking gets.
type Fig9Row struct {
	N           int
	ZeroCopy    bool
	NonBlocking bool
	GFLOPS      float64
}

// Fig9 sweeps the four protocol configurations.
func Fig9(ns []int, procs int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, n := range ns {
		for _, zc := range []bool{true, false} {
			for _, nb := range []bool{true, false} {
				res, err := RunMatmul(MatmulConfig{
					Platform:        machine.LinuxMyrinet(),
					Procs:           procs,
					Dims:            core.Dims{M: n, N: n, K: n},
					Alg:             algs.SRUMMA,
					SingleBuffer:    !nb,
					DisableZeroCopy: !zc,
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig9Row{N: n, ZeroCopy: zc, NonBlocking: nb, GFLOPS: res.GFLOPS})
			}
		}
	}
	return rows, nil
}

// FormatFig9 renders Figure 9.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: matmul on Linux/Myrinet, zero-copy x blocking (GFLOP/s)\n")
	fmt.Fprintf(&b, "%8s %14s %14s %14s %14s\n", "N", "nb+zcopy", "block+zcopy", "nb+copy", "block+copy")
	byN := map[int]map[string]float64{}
	var ns []int
	for _, r := range rows {
		if byN[r.N] == nil {
			byN[r.N] = map[string]float64{}
			ns = append(ns, r.N)
		}
		key := "block"
		if r.NonBlocking {
			key = "nb"
		}
		if r.ZeroCopy {
			key += "+zcopy"
		} else {
			key += "+copy"
		}
		byN[r.N][key] = r.GFLOPS
	}
	sort.Ints(ns)
	for _, n := range ns {
		m := byN[n]
		fmt.Fprintf(&b, "%8d %14.1f %14.1f %14.1f %14.1f\n",
			n, m["nb+zcopy"], m["block+zcopy"], m["nb+copy"], m["block+copy"])
	}
	return b.String()
}

// Fig10Row is one point of Figure 10: SRUMMA vs pdgemm across platforms,
// matrix sizes and processor counts.
type Fig10Row struct {
	Platform string
	N        int
	Procs    int
	SRUMMA   float64 // GFLOP/s
	Pdgemm   float64
}

// Fig10Platforms lists the sweep per platform: matrix sizes and processor
// counts mirroring the paper's ranges (600..12000, up to 128/256 procs).
type Fig10Sweep struct {
	Profile machine.Profile
	Ns      []int
	Procs   []int
}

// DefaultFig10Sweeps reproduces the paper's figure at full scale.
func DefaultFig10Sweeps() []Fig10Sweep {
	return []Fig10Sweep{
		{Profile: machine.LinuxMyrinet(), Ns: []int{600, 1000, 2000, 4000, 8000, 12000}, Procs: []int{4, 16, 64, 128}},
		{Profile: machine.IBMSP(), Ns: []int{600, 1000, 2000, 4000, 8000, 16000}, Procs: []int{16, 64, 128, 256}},
		{Profile: machine.CrayX1(), Ns: []int{600, 1000, 2000, 4000, 8000}, Procs: []int{4, 16, 64, 128}},
		{Profile: machine.SGIAltix(), Ns: []int{600, 1000, 2000, 4000, 8000, 12000}, Procs: []int{4, 16, 64, 128}},
	}
}

// Fig10 runs the SRUMMA-vs-pdgemm sweep.
func Fig10(sweeps []Fig10Sweep) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, sw := range sweeps {
		for _, n := range sw.Ns {
			for _, p := range sw.Procs {
				if p > n { // degenerate: more procs than rows
					continue
				}
				d := core.Dims{M: n, N: n, K: n}
				sr, err := RunMatmul(MatmulConfig{Platform: sw.Profile, Procs: p, Dims: d, Alg: algs.SRUMMA})
				if err != nil {
					return nil, err
				}
				pd, err := RunMatmul(MatmulConfig{Platform: sw.Profile, Procs: p, Dims: d, Alg: algs.Pdgemm})
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig10Row{Platform: sw.Profile.Name, N: n, Procs: p, SRUMMA: sr.GFLOPS, Pdgemm: pd.GFLOPS})
			}
		}
	}
	return rows, nil
}

// FormatFig10 renders Figure 10 with a ratio bar per row (one '#' per 0.5x
// of the SRUMMA/pdgemm ratio, '|' marking parity) so the shape — where
// SRUMMA's advantage peaks — reads at a glance.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: SRUMMA vs ScaLAPACK pdgemm (GFLOP/s)\n")
	fmt.Fprintf(&b, "%-14s %8s %6s %12s %12s %8s  %s\n", "platform", "N", "procs", "SRUMMA", "pdgemm", "ratio", "##|=parity")
	for _, r := range rows {
		ratio := 0.0
		if r.Pdgemm > 0 {
			ratio = r.SRUMMA / r.Pdgemm
		}
		fmt.Fprintf(&b, "%-14s %8d %6d %12.1f %12.1f %8.2f  %s\n",
			r.Platform, r.N, r.Procs, r.SRUMMA, r.Pdgemm, ratio, ratioBar(ratio))
	}
	return b.String()
}

// ratioBar renders a ratio as '#' marks (0.5x each, capped at 24) with the
// parity point marked by '|' after the second mark.
func ratioBar(ratio float64) string {
	marks := int(ratio*2 + 0.5)
	if marks > 24 {
		marks = 24
	}
	if marks < 0 {
		marks = 0
	}
	head := marks
	if head > 2 {
		head = 2
	}
	bar := strings.Repeat("#", head) + "|"
	if marks > 2 {
		bar += strings.Repeat("#", marks-2)
	}
	return bar
}

// Table1Row is one best-case row of the paper's Table 1.
type Table1Row struct {
	Label    string
	Platform machine.Profile
	Dims     core.Dims
	Procs    int
	Case     core.Case

	SRUMMA      float64 // measured GFLOP/s
	Pdgemm      float64
	PaperSRUMMA float64 // the paper's numbers, for EXPERIMENTS.md
	PaperPdgemm float64
}

// Table1Rows returns the paper's nine best-case configurations with the
// published GFLOP/s figures attached.
func Table1Rows() []Table1Row {
	return []Table1Row{
		{Label: "4000x4000 C=AB Altix", Platform: machine.SGIAltix(), Dims: core.Dims{M: 4000, N: 4000, K: 4000}, Procs: 128, Case: core.NN, PaperSRUMMA: 384, PaperPdgemm: 33.9},
		{Label: "2000x2000 C=AB CrayX1", Platform: machine.CrayX1(), Dims: core.Dims{M: 2000, N: 2000, K: 2000}, Procs: 128, Case: core.NN, PaperSRUMMA: 922, PaperPdgemm: 128},
		{Label: "12000x12000 C=AB Linux", Platform: machine.LinuxMyrinet(), Dims: core.Dims{M: 12000, N: 12000, K: 12000}, Procs: 128, Case: core.NN, PaperSRUMMA: 323.2, PaperPdgemm: 138.6},
		{Label: "8000x8000 C=AB IBMSP", Platform: machine.IBMSP(), Dims: core.Dims{M: 8000, N: 8000, K: 8000}, Procs: 256, Case: core.NN, PaperSRUMMA: 223, PaperPdgemm: 186},
		{Label: "600x600 C=AtBt Linux", Platform: machine.LinuxMyrinet(), Dims: core.Dims{M: 600, N: 600, K: 600}, Procs: 128, Case: core.TT, PaperSRUMMA: 16.64, PaperPdgemm: 6.4},
		{Label: "16000x16000 C=AtB IBMSP", Platform: machine.IBMSP(), Dims: core.Dims{M: 16000, N: 16000, K: 16000}, Procs: 128, Case: core.TN, PaperSRUMMA: 108.9, PaperPdgemm: 77.4},
		{Label: "4000x4000 C=AtBt Altix", Platform: machine.SGIAltix(), Dims: core.Dims{M: 4000, N: 4000, K: 4000}, Procs: 128, Case: core.TT, PaperSRUMMA: 369, PaperPdgemm: 24.3},
		{Label: "m4000 n4000 k1000 Linux", Platform: machine.LinuxMyrinet(), Dims: core.Dims{M: 4000, N: 4000, K: 1000}, Procs: 128, Case: core.NN, PaperSRUMMA: 160, PaperPdgemm: 107.5},
		{Label: "m1000 n1000 k2000 Altix", Platform: machine.SGIAltix(), Dims: core.Dims{M: 1000, N: 1000, K: 2000}, Procs: 64, Case: core.NN, PaperSRUMMA: 288, PaperPdgemm: 17.28},
	}
}

// Table1 measures every row.
func Table1() ([]Table1Row, error) {
	rows := Table1Rows()
	for i := range rows {
		r := &rows[i]
		sr, err := RunMatmul(MatmulConfig{Platform: r.Platform, Procs: r.Procs, Dims: r.Dims, Case: r.Case, Alg: algs.SRUMMA})
		if err != nil {
			return nil, fmt.Errorf("%s srumma: %w", r.Label, err)
		}
		pd, err := RunMatmul(MatmulConfig{Platform: r.Platform, Procs: r.Procs, Dims: r.Dims, Case: r.Case, Alg: algs.Pdgemm})
		if err != nil {
			return nil, fmt.Errorf("%s pdgemm: %w", r.Label, err)
		}
		r.SRUMMA = sr.GFLOPS
		r.Pdgemm = pd.GFLOPS
	}
	return rows, nil
}

// FormatTable1 renders Table 1 with paper-vs-measured columns.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: SRUMMA best cases (GFLOP/s), paper vs modeled\n")
	fmt.Fprintf(&b, "%-26s %6s %-8s %10s %10s %10s %10s\n",
		"case", "procs", "op", "SRUMMA", "paper", "pdgemm", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %6d %-8s %10.1f %10.1f %10.1f %10.1f\n",
			r.Label, r.Procs, r.Case.String(), r.SRUMMA, r.PaperSRUMMA, r.Pdgemm, r.PaperPdgemm)
	}
	return b.String()
}

// KLAPIRow is one point of the paper's §4.1 projection: SRUMMA on the IBM
// SP with LAPI (staged copies, host-CPU steal) vs. KLAPI (kernel zero-copy).
type KLAPIRow struct {
	N, Procs    int
	LAPI, KLAPI float64 // GFLOP/s
}

// KLAPI quantifies the zero-copy benefit the paper predicts for the SP.
func KLAPI(ns []int, procs int) ([]KLAPIRow, error) {
	var rows []KLAPIRow
	for _, n := range ns {
		d := core.Dims{M: n, N: n, K: n}
		lapi, err := RunMatmul(MatmulConfig{Platform: machine.IBMSP(), Procs: procs, Dims: d, Alg: algs.SRUMMA})
		if err != nil {
			return nil, err
		}
		klapi, err := RunMatmul(MatmulConfig{Platform: machine.IBMSPKLAPI(), Procs: procs, Dims: d, Alg: algs.SRUMMA})
		if err != nil {
			return nil, err
		}
		rows = append(rows, KLAPIRow{N: n, Procs: procs, LAPI: lapi.GFLOPS, KLAPI: klapi.GFLOPS})
	}
	return rows, nil
}

// FormatKLAPI renders the projection table.
func FormatKLAPI(rows []KLAPIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "KLAPI projection (paper \u00a74.1): SRUMMA on the IBM SP, LAPI vs zero-copy KLAPI\n")
	fmt.Fprintf(&b, "%8s %6s %12s %12s %8s\n", "N", "procs", "LAPI GF/s", "KLAPI GF/s", "gain%")
	for _, r := range rows {
		gain := 0.0
		if r.LAPI > 0 {
			gain = 100 * (r.KLAPI - r.LAPI) / r.LAPI
		}
		fmt.Fprintf(&b, "%8d %6d %12.1f %12.1f %8.1f\n", r.N, r.Procs, r.LAPI, r.KLAPI, gain)
	}
	return b.String()
}

// AblationRow compares SRUMMA with one optimization disabled.
type AblationRow struct {
	Name    string
	Full    float64 // GFLOP/s with everything on
	Ablated float64 // GFLOP/s with the named feature off
}

// Ablations measures the design-choice ablations DESIGN.md calls out, on
// the IBM SP profile (16-way nodes make locality ordering matter most, as
// the paper notes for the diagonal shift).
func Ablations(n, procs int) ([]AblationRow, error) {
	base := MatmulConfig{Platform: machine.IBMSP(), Procs: procs, Dims: core.Dims{M: n, N: n, K: n}, Alg: algs.SRUMMA}
	full, err := RunMatmul(base)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, ab := range []struct {
		name string
		mut  func(*MatmulConfig)
	}{
		{"diagonal-shift", func(c *MatmulConfig) { c.NoDiagonalShift = true }},
		{"shared-first", func(c *MatmulConfig) { c.NoSharedFirst = true }},
		{"double-buffer", func(c *MatmulConfig) { c.SingleBuffer = true }},
	} {
		cfg := base
		ab.mut(&cfg)
		res, err := RunMatmul(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: ab.name, Full: full.GFLOPS, Ablated: res.GFLOPS})
	}
	// Zero-copy can only be ablated on the zero-copy-capable cluster — the
	// paper makes the same point about Myrinet being its only testbed for
	// this (the SP's LAPI never had it).
	lmBase := base
	lmBase.Platform = machine.LinuxMyrinet()
	lmFull, err := RunMatmul(lmBase)
	if err != nil {
		return nil, err
	}
	lmCfg := lmBase
	lmCfg.DisableZeroCopy = true
	lmRes, err := RunMatmul(lmCfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{Name: "zero-copy", Full: lmFull.GFLOPS, Ablated: lmRes.GFLOPS})
	return rows, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: SRUMMA with one optimization disabled (GFLOP/s)\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %8s\n", "feature", "full", "ablated", "loss%")
	for _, r := range rows {
		loss := 0.0
		if r.Full > 0 {
			loss = 100 * (r.Full - r.Ablated) / r.Full
		}
		fmt.Fprintf(&b, "%-16s %10.1f %10.1f %8.1f\n", r.Name, r.Full, r.Ablated, loss)
	}
	return b.String()
}
