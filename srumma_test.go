package srumma

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"srumma/internal/mat"
)

func TestClusterMultiplyMatchesSerial(t *testing.T) {
	cl, err := NewCluster(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(30, 20, 1)
	b := RandomMatrix(20, 26, 2)
	got, rep, err := cl.Multiply(a, b, MultiplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(30, 26)
	if err := mat.GemmNaive(false, false, 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("multiply diff %g", d)
	}
	if rep.Seconds <= 0 || rep.GFLOPS <= 0 {
		t.Fatalf("report not filled: %+v", rep)
	}
}

// TestAlgorithmTable multiplies through every row of the algorithm table on
// the real engine and checks each product against the serial reference,
// within 1e-10·K: SRUMMA in every transpose case on square, rectangular and
// machine-wide shared-memory grids, its three ablations, the four
// baselines, and skinny shapes.
func TestAlgorithmTable(t *testing.T) {
	type row struct {
		name       string
		procs, ppn int
		shared     bool
		m, n, k    int
		opts       MultiplyOptions
	}
	const max = 28
	var rows []row
	for i, cs := range []Case{NN, TN, NT, TT} {
		rows = append(rows,
			row{fmt.Sprintf("srumma/%v/2x2", cs), 4, 2, false, max, max, max, MultiplyOptions{Case: cs}},
			row{fmt.Sprintf("srumma/%v/2x3", cs), 6, 2, false, max - 3, max - 1, max + 5, MultiplyOptions{Case: cs}},
			row{fmt.Sprintf("srumma/%v/2x3-small", cs), 6, 2, false, 18, 14, 22, MultiplyOptions{Case: cs}},
			row{fmt.Sprintf("srumma/%v/shared-machine", cs), 4, 2, true, max - i, max, max - 2, MultiplyOptions{Case: cs}},
			row{fmt.Sprintf("summa/%v", cs), 6, 2, false, max, max - 2, max + 3, MultiplyOptions{Case: cs, Algorithm: AlgSUMMA, NB: 5}},
			row{fmt.Sprintf("pdgemm/%v", cs), 6, 2, false, max - 1, max, max + 1, MultiplyOptions{Case: cs, Algorithm: AlgPdgemm, NB: 4}},
		)
	}
	rows = append(rows,
		row{"srumma/no-diagonal-shift", 6, 3, false, max, max, max, MultiplyOptions{NoDiagonalShift: true}},
		row{"srumma/no-shared-first", 6, 3, false, max, max, max, MultiplyOptions{NoSharedFirst: true}},
		row{"srumma/single-buffer", 6, 3, false, max, max, max, MultiplyOptions{SingleBuffer: true}},
		row{"cannon/3x3", 9, 3, false, max, max, max, MultiplyOptions{Algorithm: AlgCannon}},
		row{"fox/3x3", 9, 3, false, max + 2, max - 2, max, MultiplyOptions{Algorithm: AlgFox}},
		row{"rectangular/mk", 4, 2, false, 2 * max, max / 2, max, MultiplyOptions{}},
		row{"rectangular/k-heavy", 4, 2, false, max / 2, max / 2, 3 * max, MultiplyOptions{}},
	)
	// Every algorithm on one 2x2 grid, so Cannon and Fox run beside the rest.
	for _, alg := range []string{AlgSRUMMA, AlgSUMMA, AlgPdgemm, AlgCannon, AlgFox} {
		rows = append(rows, row{alg + "/2x2", 4, 2, false, 24, 24, 24, MultiplyOptions{Algorithm: alg, NB: 5}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cl, err := NewCluster(r.procs, r.ppn, r.shared)
			if err != nil {
				t.Fatal(err)
			}
			cs := r.opts.Case
			ar, ac := r.m, r.k
			if cs.TransA() {
				ar, ac = r.k, r.m
			}
			br, bc := r.k, r.n
			if cs.TransB() {
				br, bc = r.n, r.k
			}
			a, b := RandomMatrix(ar, ac, 1), RandomMatrix(br, bc, 2)
			got, _, err := cl.Multiply(a, b, r.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := NewMatrix(r.m, r.n)
			if err := mat.GemmNaive(cs.TransA(), cs.TransB(), 1, a, b, 0, want); err != nil {
				t.Fatal(err)
			}
			if d := mat.MaxAbsDiff(got, want); d > 1e-10*float64(r.k) {
				t.Fatalf("%dx%dx%d on %d procs: max abs diff %g", r.m, r.n, r.k, r.procs, d)
			}
		})
	}
}

func TestMultiplyShapeErrors(t *testing.T) {
	cl, _ := NewCluster(2, 1, false)
	if _, _, err := cl.Multiply(RandomMatrix(4, 5, 1), RandomMatrix(6, 4, 2), MultiplyOptions{}); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	if _, _, err := cl.Multiply(RandomMatrix(4, 4, 1), RandomMatrix(4, 4, 2), MultiplyOptions{Algorithm: "magic"}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
	if _, _, err := cl.Multiply(RandomMatrix(4, 4, 1), RandomMatrix(4, 4, 2), MultiplyOptions{Algorithm: AlgCannon, Case: TN}); err == nil {
		t.Fatal("expected Cannon transpose error")
	}
}

func TestCannonRequiresSquareGrid(t *testing.T) {
	cl, err := NewCluster(6, 2, false) // 2x3 grid
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Multiply(RandomMatrix(12, 12, 1), RandomMatrix(12, 12, 2), MultiplyOptions{Algorithm: AlgCannon}); err == nil {
		t.Fatal("expected non-square grid error from Cannon")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 1, false); err == nil {
		t.Fatal("expected error for 0 procs")
	}
	if _, err := NewCluster(4, 0, false); err == nil {
		t.Fatal("expected error for 0 procs per node")
	}
	cl, err := NewCluster(12, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if p, q := cl.GridShape(); p*q != 12 || cl.Procs() != 12 {
		t.Fatalf("grid %dx%d procs %d", p, q, cl.Procs())
	}
}

func TestMultiplyQuickPublicAPI(t *testing.T) {
	cl, err := NewCluster(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	f := func(mm, nn, kk, cc uint8) bool {
		m := 1 + int(mm%16)
		n := 1 + int(nn%16)
		k := 1 + int(kk%16)
		cs := []Case{NN, TN, NT, TT}[cc%4]
		ar, ac := m, k
		if cs.TransA() {
			ar, ac = k, m
		}
		br, bc := k, n
		if cs.TransB() {
			br, bc = n, k
		}
		a := RandomMatrix(ar, ac, uint64(mm)+1)
		b := RandomMatrix(br, bc, uint64(nn)+2)
		got, _, err := cl.Multiply(a, b, MultiplyOptions{Case: cs})
		if err != nil {
			return false
		}
		want := NewMatrix(m, n)
		if mat.GemmNaive(cs.TransA(), cs.TransB(), 1, a, b, 0, want) != nil {
			return false
		}
		return mat.MaxAbsDiff(got, want) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReportCommunicationAccounting(t *testing.T) {
	cl, _ := NewCluster(4, 2, false)
	a := RandomMatrix(32, 32, 1)
	b := RandomMatrix(32, 32, 2)
	_, rep, err := cl.Multiply(a, b, MultiplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesRemote == 0 {
		t.Error("expected remote traffic on a 2-node cluster")
	}
	_, repPd, err := cl.Multiply(a, b, MultiplyOptions{Algorithm: AlgPdgemm, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if repPd.Messages == 0 {
		t.Error("expected two-sided messages from pdgemm")
	}
}

func TestPlatformsList(t *testing.T) {
	names := Platforms()
	if len(names) != 6 {
		t.Fatalf("platforms = %v", names)
	}
	for _, want := range []string{"cray-x1", "ibm-sp", "ibm-sp-klapi", "linux-myrinet", "modern-cluster", "sgi-altix"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing platform %s in %v", want, names)
		}
	}
	if _, err := PlatformByName("cray-x1"); err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformByName("pdp-11"); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestSimulateBasics(t *testing.T) {
	rep, err := Simulate(SimOptions{
		Platform: "sgi-altix",
		Procs:    16,
		Dims:     Dims{M: 512, N: 512, K: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds <= 0 || rep.GFLOPS <= 0 {
		t.Fatalf("bad report %+v", rep)
	}
	if _, err := Simulate(SimOptions{Platform: "nope", Procs: 4, Dims: Dims{M: 64, N: 64, K: 64}}); err == nil {
		t.Fatal("expected unknown platform error")
	}
}

func TestSimulateSRUMMAvsPdgemm(t *testing.T) {
	d := Dims{M: 1000, N: 1000, K: 1000}
	sr, err := Simulate(SimOptions{Platform: "sgi-altix", Procs: 64, Dims: d})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := Simulate(SimOptions{Platform: "sgi-altix", Procs: 64, Dims: d, Algorithm: AlgPdgemm})
	if err != nil {
		t.Fatal(err)
	}
	if sr.GFLOPS <= pd.GFLOPS {
		t.Fatalf("SRUMMA %.1f should beat pdgemm %.1f on the Altix model", sr.GFLOPS, pd.GFLOPS)
	}
}

func TestSimulateOverlapReported(t *testing.T) {
	rep, err := Simulate(SimOptions{Platform: "linux-myrinet", Procs: 16, Dims: Dims{M: 2000, N: 2000, K: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports >90% overlap in most Linux-cluster cases.
	if rep.Overlap < 0.5 {
		t.Errorf("overlap %.2f unexpectedly low", rep.Overlap)
	}
	blocking, err := Simulate(SimOptions{Platform: "linux-myrinet", Procs: 16, Dims: Dims{M: 2000, N: 2000, K: 2000}, Blocking: true})
	if err != nil {
		t.Fatal(err)
	}
	if blocking.GFLOPS >= rep.GFLOPS {
		t.Errorf("blocking (%.1f) should not beat pipelined (%.1f)", blocking.GFLOPS, rep.GFLOPS)
	}
}

func TestMeasureBandwidthAndOverlap(t *testing.T) {
	sizes := []int{4 << 10, 256 << 10}
	for _, proto := range []string{ProtoGet, ProtoMPI, ProtoMemcpy} {
		pts, err := MeasureBandwidth("linux-myrinet", proto, sizes)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if len(pts) != 2 || pts[0].MBps <= 0 {
			t.Fatalf("%s: bad points %+v", proto, pts)
		}
	}
	if _, err := MeasureBandwidth("linux-myrinet", "pigeon", sizes); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatal("expected unknown protocol error")
	}
	ov, err := MeasureOverlap("ibm-sp", ProtoGet, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov) != 2 || ov[0].OverlapPct < 90 {
		t.Fatalf("ARMCI overlap points %+v", ov)
	}
	if _, err := MeasureOverlap("ibm-sp", ProtoMemcpy, sizes); err == nil {
		t.Fatal("expected error for overlap on memcpy")
	}
}

func TestNewClusterForSkinnyShapes(t *testing.T) {
	cl, err := NewClusterFor(8, 2, false, 800, 50)
	if err != nil {
		t.Fatal(err)
	}
	p, q := cl.GridShape()
	if p <= q {
		t.Fatalf("tall result should get a tall grid, got %dx%d", p, q)
	}
	// And it must still multiply correctly.
	a := RandomMatrix(80, 40, 1)
	b := RandomMatrix(40, 10, 2)
	got, _, err := cl.Multiply(a, b, MultiplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(80, 10)
	if err := mat.GemmNaive(false, false, 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestSimulateVariantsAndErrors(t *testing.T) {
	d := Dims{M: 256, N: 256, K: 256}
	// Forced copy flavor and MaxTaskK plumb through.
	rep, err := Simulate(SimOptions{Platform: "sgi-altix", Procs: 8, Dims: d, ForceCopyShared: true, MaxTaskK: 32})
	if err != nil || rep.GFLOPS <= 0 {
		t.Fatalf("forced-copy simulate: %v %+v", err, rep)
	}
	// Unknown algorithm surfaces as an error, not a hang.
	if _, err := Simulate(SimOptions{Platform: "sgi-altix", Procs: 4, Dims: d, Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Cannon and Fox are refused on a transposed case or a non-square grid
	// before any rank runs, with the error Cluster.Multiply returns.
	for _, tc := range []struct {
		alg   string
		procs int
		cs    Case
		want  string
	}{
		{AlgCannon, 4, TN, "srumma: cannon supports C=AB only"},
		{AlgFox, 4, TN, "srumma: fox supports C=AB only"},
		{AlgCannon, 6, NN, "cannon: requires a square grid, got 2x3"},
		{AlgFox, 6, NN, "fox: requires a square grid, got 2x3"},
	} {
		_, err := Simulate(SimOptions{Platform: "linux-myrinet", Procs: tc.procs, Dims: Dims{M: 200, N: 100, K: 300}, Algorithm: tc.alg, Case: tc.cs})
		if err == nil || err.Error() != tc.want {
			t.Errorf("Simulate %s %v on %d procs: error %v, want %q", tc.alg, tc.cs, tc.procs, err, tc.want)
		}
		cl, _ := NewCluster(tc.procs, 2, false)
		_, _, err = cl.Multiply(RandomMatrix(12, 12, 1), RandomMatrix(12, 12, 2), MultiplyOptions{Algorithm: tc.alg, Case: tc.cs})
		if err == nil || err.Error() != tc.want {
			t.Errorf("Cluster.Multiply %s %v on %d procs: error %v, want %q", tc.alg, tc.cs, tc.procs, err, tc.want)
		}
	}
	// Bandwidth/overlap default size sweeps and bad platforms.
	if _, err := MeasureBandwidth("nope", ProtoGet, nil); err == nil {
		t.Fatal("bad platform accepted by MeasureBandwidth")
	}
	if _, err := MeasureOverlap("nope", ProtoGet, nil); err == nil {
		t.Fatal("bad platform accepted by MeasureOverlap")
	}
	if pts, err := MeasureOverlap("linux-myrinet", ProtoMPI, []int{512}); err != nil || len(pts) != 1 {
		t.Fatalf("overlap defaults: %v %v", pts, err)
	}
}

func TestNewClusterForValidation(t *testing.T) {
	if _, err := NewClusterFor(0, 1, false, 10, 10); err == nil {
		t.Fatal("0 procs accepted")
	}
	if _, err := NewClusterFor(4, 2, false, 0, 10); err == nil {
		t.Fatal("m=0 accepted")
	}
}
