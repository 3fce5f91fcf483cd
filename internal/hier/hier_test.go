package hier

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/mat"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

// runEngine executes one multiply (flat or hierarchical) on the real engine
// and returns the gathered C.
func runEngine(t *testing.T, topo rt.Topology, g *grid.Grid, d core.Dims, opts Options, hier bool,
	alpha, beta float64, seedA, seedB, seedC uint64) *mat.Matrix {
	t.Helper()
	da, db, dc := core.Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, seedA)
	bGlob := mat.Random(db.Rows, db.Cols, seedB)
	cGlob := mat.Random(dc.Rows, dc.Cols, seedC)
	co := driver.NewCollect(g.Size())
	_, err := armci.Run(topo, func(c rt.Ctx) {
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		driver.LoadBlock(c, dc, gc, cGlob)
		var err error
		if hier {
			err = MultiplyEx(c, From(topo, g), d, opts, alpha, beta, ga, gb, gc)
		} else {
			err = core.MultiplyEx(c, g, d, opts.Options, alpha, beta, ga, gb, gc)
		}
		if err != nil {
			panic(err)
		}
		co.Deposit(c, driver.StoreBlock(c, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dc.Gather(co.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func bitsEqual(t *testing.T, flat, hier *mat.Matrix, label string) {
	t.Helper()
	if flat.Rows != hier.Rows || flat.Cols != hier.Cols {
		t.Fatalf("%s: shape mismatch %dx%d vs %dx%d", label, flat.Rows, flat.Cols, hier.Rows, hier.Cols)
	}
	for i := range flat.Data {
		if math.Float64bits(flat.Data[i]) != math.Float64bits(hier.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: flat %v hier %v", label, i, flat.Data[i], hier.Data[i])
		}
	}
}

// TestHierBitIdenticalToFlat is the property the whole design hangs on:
// across all four transpose cases, grids, domain sizes and a non-trivial
// alpha/beta, the hierarchical path produces the SAME BITS as flat SRUMMA.
// The groups are the domains; the "gs0" in the subtest names is what earlier
// revisions called that carving, kept so the names stay comparable.
func TestHierBitIdenticalToFlat(t *testing.T) {
	configs := []struct {
		p, q, ppn int
		span      bool
		d         core.Dims
		maxK      int
	}{
		{p: 2, q: 2, ppn: 2, d: core.Dims{M: 24, N: 24, K: 24}},
		{p: 2, q: 3, ppn: 2, d: core.Dims{M: 20, N: 25, K: 30}, maxK: 7},
		{p: 3, q: 2, ppn: 3, d: core.Dims{M: 19, N: 17, K: 23}},
		// Domains of two: a grid column each, and half a grid column each
		// (whose members share remote blocks in every case).
		{p: 2, q: 4, ppn: 2, d: core.Dims{M: 32, N: 28, K: 26}, maxK: 9},
		{p: 4, q: 2, ppn: 2, d: core.Dims{M: 16, N: 16, K: 16}},
		// Shared machine: one domain, nothing fetched.
		{p: 2, q: 2, ppn: 4, span: true, d: core.Dims{M: 16, N: 16, K: 16}},
	}
	for _, cfg := range configs {
		for _, cs := range core.Cases {
			label := fmt.Sprintf("%dx%d/ppn%d/gs0/%v", cfg.p, cfg.q, cfg.ppn, cs)
			t.Run(label, func(t *testing.T) {
				g, err := grid.New(cfg.p, cfg.q)
				if err != nil {
					t.Fatal(err)
				}
				topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: cfg.ppn, DomainSpansMachine: cfg.span}
				opts := Options{Options: core.Options{Case: cs, MaxTaskK: cfg.maxK}}
				flat := runEngine(t, topo, g, cfg.d, opts, false, 1.25, -0.5, 11, 22, 33)
				hier := runEngine(t, topo, g, cfg.d, opts, true, 1.25, -0.5, 11, 22, 33)
				bitsEqual(t, flat, hier, label)
			})
		}
	}
}

// TestHierMatchesReference pins the hierarchical result against the naive
// kernel independently of the flat path.
func TestHierMatchesReference(t *testing.T) {
	d := core.Dims{M: 20, N: 25, K: 30}
	for _, cs := range core.Cases {
		t.Run(cs.String(), func(t *testing.T) {
			g, err := grid.New(2, 3)
			if err != nil {
				t.Fatal(err)
			}
			topo := rt.Topology{NProcs: 6, ProcsPerNode: 2}
			got := runEngine(t, topo, g, d, Options{Options: core.Options{Case: cs}}, true, 1, 0, 5, 6, 7)
			ar, ac := d.M, d.K
			if cs.TransA() {
				ar, ac = d.K, d.M
			}
			br, bc := d.K, d.N
			if cs.TransB() {
				br, bc = d.N, d.K
			}
			a := mat.Random(ar, ac, 5)
			b := mat.Random(br, bc, 6)
			want := mat.New(d.M, d.N)
			if err := mat.GemmNaive(cs.TransA(), cs.TransB(), 1, a, b, 0, want); err != nil {
				t.Fatal(err)
			}
			if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
				t.Errorf("%v: max diff vs reference %g", cs, diff)
			}
		})
	}
}

// TestScheduleCoversAllFetches is the outer level's invariant: every fetch
// a member's flat executor would issue is in its group's schedule, where it
// is either staged — exactly once, and always when two members need it or
// one needs it twice — or left to the single member that issues it once.
func TestScheduleCoversAllFetches(t *testing.T) {
	for _, tc := range []struct {
		p, q, ppn int
		shares    bool // some region has two consumers
	}{{2, 4, 2, false}, {2, 4, 4, true}, {4, 4, 8, true}, {4, 4, 4, false}} {
		g, err := grid.New(tc.p, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: tc.ppn}
		d := core.Dims{M: 40, N: 36, K: 44}
		for _, cs := range core.Cases {
			opts := Options{Options: core.Options{Case: cs, MaxTaskK: 10}}
			tp := From(topo, g)
			label := fmt.Sprintf("%dx%d/ppn%d/%v", tc.p, tc.q, tc.ppn, cs)
			anyStaged := false
			for grp := 0; grp < tp.NumDomains(); grp++ {
				// What the members would fetch, flat: region -> issuing members.
				issues := make(map[core.FetchRegion][]int)
				lo, hi := tp.DomainRanks(grp)
				for me := lo; me < hi; me++ {
					for _, r := range core.RankFetches(topo, me, g, d, opts.Options) {
						issues[r] = append(issues[r], me)
					}
				}
				seen := make(map[core.FetchRegion]bool)
				for _, p := range Schedule(tp, grp, d, opts) {
					elems, staged := 0, 0
					for _, r := range p.Regions {
						if seen[r.FetchRegion] {
							t.Fatalf("%s: group %d schedules region %+v twice", label, grp, r)
						}
						seen[r.FetchRegion] = true
						by := issues[r.FetchRegion]
						if r.Fetches != len(by) {
							t.Fatalf("%s: region %+v counted %d fetches, members issue %v", label, r, r.Fetches, by)
						}
						if r.Shared() != (len(by) > 1) {
							t.Fatalf("%s: region %+v staged=%v with issuers %v", label, r, r.Shared(), by)
						}
						elems += r.Elems()
						if r.Shared() {
							staged += r.Elems()
							anyStaged = true
						}
					}
					if p.Elems != elems || p.Staged != staged {
						t.Fatalf("%s: panel totals %d/%d, regions sum to %d/%d", label, p.Elems, p.Staged, elems, staged)
					}
				}
				for r, by := range issues {
					if !seen[r] {
						t.Fatalf("%s: fetch %+v of ranks %v is neither staged nor member-fetched", label, r, by)
					}
				}
			}
			if cs == core.NN && anyStaged != tc.shares {
				t.Fatalf("%s: staged=%v, want %v", label, anyStaged, tc.shares)
			}
		}
	}
}

// TestPredictVolumesHierWins: the hierarchical outer level never moves
// more across domains than flat SRUMMA, and strictly less once node-mates
// share fetch regions.
func TestPredictVolumesHierWins(t *testing.T) {
	d := core.Dims{M: 96, N: 96, K: 96}
	for _, np := range []int{4, 8, 16, 32} {
		g, err := grid.Square(np)
		if err != nil {
			t.Fatal(err)
		}
		topo := rt.Topology{NProcs: np, ProcsPerNode: 2}
		v := PredictVolumes(From(topo, g), d, Options{})
		if v.OuterRemote > v.FlatRemote {
			t.Errorf("np=%d: hier outer remote %d exceeds flat %d", np, v.OuterRemote, v.FlatRemote)
		}
		// At np=8 (2x4 grid, ppn=2) a node IS one grid column: no two
		// node-mates share a fetch region and the volumes tie; from np=16
		// on (the crossover TestSimVolumesMatchPrediction pins), node-mates
		// are column segments and the dedup win is strict.
		if np >= 16 && v.OuterRemote >= v.FlatRemote {
			t.Errorf("np=%d: expected strict hier win, got outer %d vs flat %d", np, v.OuterRemote, v.FlatRemote)
		}
	}
}

// TestSimVolumesMatchPrediction runs flat SRUMMA and the two-level multiply
// across process counts on the virtual-time engine (linux-myrinet, N = 512,
// two ranks per node). Both paths run the same inner task list, so the
// comparison isolates data movement, and the sim engine charges every
// remote byte: the measured counts are pinned exactly, must equal
// 8 x PredictVolumes on both paths (a mismatch means the staging plan and
// the executor disagreed about some fetch), and the volume crossover — the
// smallest P where hier strictly beats flat — sits at exactly P = 16. Below
// it each node coincides with one grid column, no two node-mates want the
// same remote region, nothing is staged and the volumes tie. From the
// crossover on the modeled hier time must be below flat as well.
func TestSimVolumesMatchPrediction(t *testing.T) {
	prof := machine.LinuxMyrinet()
	prof.ProcsPerNode = 2
	d := core.Dims{M: 512, N: 512, K: 512}
	opts := Options{}

	// run returns the remote bytes summed over ranks and the slowest rank's
	// modeled time through Multiply.
	run := func(np int, g *grid.Grid, hier bool) (int64, float64) {
		durations := make([]float64, np)
		res, err := simrt.Run(prof, np, func(c rt.Ctx) {
			da, db, dc := core.Dists(g, d, opts.Case)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			t0 := c.Now()
			var err error
			if hier {
				err = Multiply(c, From(c.Topo(), g), d, opts, ga, gb, gc)
			} else {
				err = core.Multiply(c, g, d, opts.Options, ga, gb, gc)
			}
			if err != nil {
				panic(err)
			}
			durations[c.Rank()] = c.Now() - t0
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, s := range res.Stats {
			total += s.BytesRemote
		}
		return total, slices.Max(durations)
	}

	crossover := 0
	for _, tc := range []struct {
		np         int
		flat, hier int64 // remote bytes
	}{
		{4, 2097152, 2097152},
		{16, 10485760, 8388608},
		{36, 18874368, 14680064},
		{64, 27262976, 20971520},
	} {
		g, err := grid.Square(tc.np)
		if err != nil {
			t.Fatal(err)
		}
		flatB, flatS := run(tc.np, g, false)
		hierB, hierS := run(tc.np, g, true)
		if flatB != tc.flat || hierB != tc.hier {
			t.Errorf("P=%d: remote bytes flat %d hier %d, want %d and %d", tc.np, flatB, hierB, tc.flat, tc.hier)
		}
		topo := rt.Topology{NProcs: tc.np, ProcsPerNode: prof.ProcsPerNode}
		v := PredictVolumes(From(topo, g), d, opts)
		if want := v.FlatRemote * 8; flatB != want {
			t.Errorf("P=%d: flat measured remote bytes %d, predicted %d", tc.np, flatB, want)
		}
		if want := v.OuterRemote * 8; hierB != want {
			t.Errorf("P=%d: hier measured remote bytes %d, predicted %d", tc.np, hierB, want)
		}
		if crossover == 0 && hierB < flatB {
			crossover = tc.np
		}
		if tc.np >= 16 && hierS >= flatS {
			t.Errorf("P=%d: modeled hier time %g s not below flat %g s", tc.np, hierS, flatS)
		}
	}
	if crossover != 16 {
		t.Errorf("hierarchical volume first strictly beats flat at P=%d, want 16", crossover)
	}
}

// TestChoosePrefersCheaperGrid: Choose never does worse than the square
// default, and goes non-square when the shape rewards it.
func TestChoosePrefersCheaperGrid(t *testing.T) {
	topo := rt.Topology{NProcs: 8, ProcsPerNode: 2}
	d := core.Dims{M: 1024, N: 32, K: 256}
	tp, err := Choose(topo, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sq, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	got := PredictVolumes(tp, d, Options{})
	def := PredictVolumes(From(topo, sq), d, Options{})
	if got.OuterRemote > def.OuterRemote {
		t.Errorf("Choose picked %dx%d with outer volume %d, square default %d",
			tp.Grid.P, tp.Grid.Q, got.OuterRemote, def.OuterRemote)
	}
}

// TestGroupShape reports the intra-group footprint on the composite grid.
func TestGroupShape(t *testing.T) {
	g, err := grid.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tp := From(rt.Topology{NProcs: 8, ProcsPerNode: 4}, g)
	// Column-major ranks: group 0 = ranks 0..3 = column 0 = 4x1.
	if r, c := tp.GroupShape(0); r != 4 || c != 1 {
		t.Errorf("group 0 shape %dx%d, want 4x1", r, c)
	}
}
