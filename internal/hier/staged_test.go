package hier

// Gates for the per-region outer level: what is staged is read in place
// (FlavorDirect) or copied out (FlavorCopy), what has one consumer is fetched
// by it, and the band's memory is pooled and handed out unzeroed. Every test
// holds the two-level result to flat SRUMMA bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// rig is a persistent team on one topology with its square-ish grid.
type rig struct {
	topo rt.Topology
	g    *grid.Grid
	team *armci.Team
}

func newRig(t *testing.T, topo rt.Topology) *rig {
	t.Helper()
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	team, err := armci.NewTeam(topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { team.Close() })
	return &rig{topo, g, team}
}

// run is one multiply of a rig: the shape and executor options, whether the
// operands are adopted where they lie (as strided views, driver.Bind) or
// allocated and loaded, and what the two-level multiply gets on top of the
// flat one: ctx layers beneath hier, extra options.
type run struct {
	d       core.Dims
	opts    core.Options
	adopted bool
	same    bool                // C = A·A: one Global is both operands (square NN only)
	wrap    func(rt.Ctx) rt.Ctx // layered over the engine ctx for the hier multiply
	hierOpt func(*core.Options) // applied to the hier multiply's options only
}

// both multiplies once flat and once two-level on the same operands, C
// starting from the same random matrix with alpha, beta != 1, 0, and returns
// the two results and the summed stats of each.
func (r *rig) both(t *testing.T, v run) (flat, two *mat.Matrix, stats [2]rt.Stats) {
	t.Helper()
	da, db, dc := core.Dists(r.g, v.d, v.opts.Case)
	a := mat.Random(da.Rows+3, da.Cols+5, 7).View(2, 3, da.Rows, da.Cols)
	b := mat.Random(db.Rows+1, db.Cols+2, 8).View(1, 1, db.Rows, db.Cols)
	if v.same {
		b = a
	}
	c0 := mat.Random(v.d.M, v.d.N, 9)
	out := [2]*mat.Matrix{c0.Clone(), c0.Clone()}
	for mode := range out {
		st, err := r.team.Run(func(c rt.Ctx) {
			place := func(d *grid.BlockDist, m *mat.Matrix) rt.Global {
				if v.adopted {
					return driver.Bind(c, d, m)
				}
				gl := driver.AllocBlock(c, d)
				driver.LoadBlock(c, d, gl, m)
				return gl
			}
			ga := place(da, a)
			gb := ga
			if !v.same {
				gb = place(db, b)
			}
			gc := place(dc, out[mode])
			var err error
			if mode == 0 {
				err = core.MultiplyEx(c, r.g, v.d, v.opts, 1.25, -0.5, ga, gb, gc)
			} else {
				hc, opts := c, v.opts
				if v.wrap != nil {
					hc = v.wrap(c)
				}
				if v.hierOpt != nil {
					v.hierOpt(&opts)
				}
				err = MultiplyEx(hc, From(r.topo, r.g), v.d, Options{Options: opts}, 1.25, -0.5, ga, gb, gc)
			}
			if err != nil {
				panic(err)
			}
			if !v.adopted {
				blk := driver.StoreBlock(c, dc, gc)
				i, j := dc.BlockOrigin(r.g.Coords(c.Rank()))
				for row := 0; row < blk.Rows; row++ {
					copy(out[mode].Data[(i+row)*out[mode].Stride+j:], blk.Data[row*blk.Stride:row*blk.Stride+blk.Cols])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st {
			stats[mode].Add(s)
		}
	}
	return out[0], out[1], stats
}

// The topologies of the matrix: nothing shared (each group is one grid
// column), row-mates sharing A's remote blocks (two columns per group, at
// P=16 and P=8), a domain carved into groups of 2, 4 and 8 (which share
// in-domain blocks only under FlavorCopy, where those are fetched at all),
// and a single group.
var topologies = []rt.Topology{
	{NProcs: 16, ProcsPerNode: 4},
	{NProcs: 16, ProcsPerNode: 8},
	{NProcs: 16, ProcsPerNode: 8, GroupSize: 2},
	{NProcs: 16, ProcsPerNode: 8, GroupSize: 4},
	{NProcs: 16, ProcsPerNode: 8, GroupSize: 8},
	{NProcs: 8, ProcsPerNode: 4},
	{NProcs: 4, ProcsPerNode: 4},
}

func topoName(tp rt.Topology) string {
	return fmt.Sprintf("P%d/ppn%d/gs%d", tp.NProcs, tp.ProcsPerNode, tp.GroupSize)
}

// TestStagedPathsBitIdentical is the matrix: every topology x transpose case
// x flavour x executor variant x placement on shapes that leave ranks
// without rows or columns, and the large shapes once per (topology, case),
// the other axes dealt round-robin across them.
func TestStagedPathsBitIdentical(t *testing.T) {
	small := []core.Dims{{M: 7, N: 5, K: 3}, {M: 1, N: 1, K: 1}, {M: 3, N: 40, K: 9}, {M: 40, N: 2, K: 9}, {M: 33, N: 47, K: 70}}
	big := []core.Dims{{M: 768, N: 768, K: 768}, {M: 1021, N: 509, K: 1531}}
	if raceEnabled {
		small = small[:4]
		big = []core.Dims{{M: 192, N: 192, K: 192}, {M: 255, N: 127, K: 383}}
	}
	variants := []struct {
		maxK   int
		single bool
	}{{0, false}, {64, false}, {0, true}, {64, true}}
	for ti, tp := range topologies {
		t.Run(topoName(tp), func(t *testing.T) {
			r := newRig(t, tp)
			check := func(v run) {
				flat, two, _ := r.both(t, v)
				bitsEqual(t, flat, two, fmt.Sprintf("%+v %+v adopted=%v", v.d, v.opts, v.adopted))
			}
			n := 0
			for _, cs := range core.Cases {
				for _, fl := range []core.Flavor{core.FlavorDirect, core.FlavorCopy} {
					for vi, ev := range variants {
						for _, adopted := range []bool{false, true} {
							opts := core.Options{Case: cs, Flavor: fl, MaxTaskK: ev.maxK, SingleBuffer: ev.single}
							if n++; raceEnabled && n%3 != ti%3 {
								continue // a third of the small matrix per topology under -race
							}
							for _, d := range small {
								check(run{d: d, opts: opts, adopted: adopted})
							}
						}
						if !testing.Short() && vi == (ti+int(cs))%len(variants) && int(fl) == (ti+int(cs)/2)%2 {
							for bi, d := range big {
								opts := core.Options{Case: cs, Flavor: fl, MaxTaskK: ev.maxK, SingleBuffer: ev.single}
								check(run{d: d, opts: opts, adopted: (bi+vi)%2 == 0})
							}
						}
					}
				}
			}
		})
	}
}

// drainBands empties the band pool and returns what was in it.
func drainBands() (segs []*[]float64) {
	for {
		p, _ := bandPool.Get().(*[]float64)
		if p == nil {
			return segs
		}
		segs = append(segs, p)
	}
}

// poisonBands fills every pooled band segment to capacity with NaN and adds
// enough NaN segments of minCap elements that the next multiply's members
// all draw poisoned memory.
func poisonBands(members, minCap int) {
	segs := drainBands()
	for len(segs) < 2*members {
		s := make([]float64, minCap)
		segs = append(segs, &s)
	}
	for _, p := range segs {
		s := (*p)[:cap(*p)]
		for i := range s {
			s[i] = math.NaN()
		}
		bandPool.Put(p)
	}
}

// TestPoisonedBandNeverRead: the band is handed out unzeroed, so whatever a
// previous call (of another shape) left in it must never reach a Gemm. With
// every pooled segment NaN before each call, one unstaged element read
// anywhere would turn C into NaN; bit-identity to flat proves none is.
func TestPoisonedBandNeverRead(t *testing.T) {
	shapes := []core.Dims{{M: 96, N: 80, K: 112}, {M: 33, N: 47, K: 70}, {M: 7, N: 5, K: 3}, {M: 128, N: 128, K: 128}, {M: 40, N: 2, K: 9}}
	for _, tp := range []rt.Topology{{NProcs: 16, ProcsPerNode: 8}, {NProcs: 8, ProcsPerNode: 4}, {NProcs: 16, ProcsPerNode: 2}} {
		r := newRig(t, tp)
		for i, d := range shapes {
			for _, fl := range []core.Flavor{core.FlavorDirect, core.FlavorCopy} {
				cs := core.Cases[i%len(core.Cases)]
				poisonBands(tp.NProcs, 1<<14)
				v := run{d: d, opts: core.Options{Case: cs, Flavor: fl, MaxTaskK: 16 * (i % 2)}, adopted: true}
				flat, two, st := r.both(t, v)
				bitsEqual(t, flat, two, fmt.Sprintf("%s %+v %v flavour %d", topoName(tp), d, cs, fl))
				if d.M >= 33 && d.N >= 33 && st[1].HierStagedBytes == 0 {
					t.Fatalf("%s %+v %v: nothing was staged, the poison was never at risk", topoName(tp), d, cs)
				}
			}
		}
	}
}

// TestWarmBandAllocatesNothing pins the band's lifetime: on a sharing
// topology a warm two-level multiply on an adopting engine takes its band
// from the pool. What a call still allocates is its plans (every member
// plans its whole group) and the kernel's packing, well under the bound; the
// band, which every call allocated and zeroed before it was pooled, is over
// twice it.
func TestWarmBandAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts on purpose under the race detector")
	}
	tp := rt.Topology{NProcs: 16, ProcsPerNode: 8}
	r := newRig(t, tp)
	d := core.Dims{M: 768, N: 768, K: 768}
	opts := Options{}
	const bound = 2 << 20
	bandBytes := uint64(PredictVolumes(From(tp, r.g), d, opts).Staged) * 8
	if bandBytes < 2*bound {
		t.Fatalf("the topology stages only %d B, the pin would measure nothing", bandBytes)
	}
	da, db, dc := core.Dists(r.g, d, core.NN)
	a, b, out := mat.Random(da.Rows, da.Cols, 1), mat.Random(db.Rows, db.Cols, 2), mat.New(d.M, d.N)
	multiply := func() {
		_, err := r.team.Run(func(c rt.Ctx) {
			ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
			if err := Multiply(c, From(tp, r.g), d, opts, ga, gb, gc); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	multiply() // warm the pool and the engine's scratch
	multiply()
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		multiply()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B/call allocated, band %d B/call", perCall, bandBytes)
	if perCall > bound {
		t.Fatalf("a warm multiply allocates %d B (bound %d): its %d B band is not pooled", perCall, bound, bandBytes)
	}
}

// TestSameGlobalBothOperands: C = A·A passes one Global as A and as B. The
// staged regions are keyed by the Global they came from, so B's regions are
// found in the band like A's instead of being fetched a second time: the
// measured remote bytes equal the prediction and the result is flat's.
func TestSameGlobalBothOperands(t *testing.T) {
	for _, tp := range []rt.Topology{{NProcs: 16, ProcsPerNode: 2}, {NProcs: 16, ProcsPerNode: 8}} {
		r := newRig(t, tp)
		d := core.Dims{M: 64, N: 64, K: 64}
		for _, fl := range []core.Flavor{core.FlavorDirect, core.FlavorCopy} {
			for _, adopted := range []bool{false, true} {
				opts := core.Options{Flavor: fl}
				flat, two, st := r.both(t, run{d: d, opts: opts, adopted: adopted, same: true})
				label := fmt.Sprintf("%s flavour %d adopted=%v", topoName(tp), fl, adopted)
				bitsEqual(t, flat, two, label)
				v := PredictVolumes(From(tp, r.g), d, Options{Options: opts})
				if st[1].BytesRemote != 8*v.OuterRemote || st[0].BytesRemote != 8*v.FlatRemote {
					t.Errorf("%s: remote bytes hier %d flat %d, predicted %d and %d", label, st[1].BytesRemote, st[0].BytesRemote, 8*v.OuterRemote, 8*v.FlatRemote)
				}
				if v.Staged == 0 {
					t.Fatalf("%s: the topology stages nothing", label)
				}
			}
		}
	}
}

// TestStagedSplitCounted: the rank meters say what the outer level did with
// the group's fetches — nothing staged where nothing is shared, the
// predicted split where something is — and every byte of the group's union
// is fetched exactly once, by the stager or by the one consumer, whichever
// flavour reads the band. The last topology has one rank per group: all it
// can stage is what that rank would fetch twice (single-buffered TT on a
// 2x3 grid re-fetches), which keeps "fetched once" true there too.
func TestStagedSplitCounted(t *testing.T) {
	d := core.Dims{M: 96, N: 96, K: 96}
	for _, tc := range []struct {
		topo   rt.Topology
		shares bool
	}{
		{rt.Topology{NProcs: 16, ProcsPerNode: 4}, false},
		{rt.Topology{NProcs: 16, ProcsPerNode: 8}, true},
		{rt.Topology{NProcs: 8, ProcsPerNode: 4}, true},
		{rt.Topology{NProcs: 6, ProcsPerNode: 1}, false},
	} {
		r := newRig(t, tc.topo)
		for _, cs := range core.Cases {
			for _, fl := range []core.Flavor{core.FlavorDirect, core.FlavorCopy} {
				for _, single := range []bool{false, true} {
					opts := core.Options{Case: cs, Flavor: fl, MaxTaskK: 24, SingleBuffer: single}
					flat, two, st := r.both(t, run{d: d, opts: opts, adopted: true})
					v := PredictVolumes(From(tc.topo, r.g), d, Options{Options: opts})
					label := fmt.Sprintf("%s %v flavour %d single=%v", topoName(tc.topo), cs, fl, single)
					bitsEqual(t, flat, two, label)
					if st[1].HierStagedBytes != 8*v.Staged || st[1].HierMemberBytes != 8*v.MemberFetch {
						t.Errorf("%s: counted %d staged %d member-fetched, predicted %d and %d", label,
							st[1].HierStagedBytes, st[1].HierMemberBytes, 8*v.Staged, 8*v.MemberFetch)
					}
					if cs == core.NN && fl == core.FlavorDirect && (v.Staged > 0) != tc.shares {
						t.Errorf("%s: %d elements staged, sharing=%v", label, v.Staged, tc.shares)
					}
					if tc.topo.ProcsPerNode == 1 && cs == core.TT && single && (v.Staged == 0 || v.OuterRemote >= v.FlatRemote) {
						t.Errorf("%s: a rank's own re-fetches are not staged: %+v", label, v)
					}
					if v.Staged+v.MemberFetch != v.OuterRemote+v.OuterShared {
						t.Errorf("%s: staged %d + member %d != outer %d + %d", label, v.Staged, v.MemberFetch, v.OuterRemote, v.OuterShared)
					}
					if st[1].BytesRemote != 8*v.OuterRemote || st[1].BytesShared != 8*v.OuterShared {
						t.Errorf("%s: fetched %d remote %d shared bytes, the group unions hold %d and %d", label,
							st[1].BytesRemote, st[1].BytesShared, 8*v.OuterRemote, 8*v.OuterShared)
					}
					if st[0].BytesRemote != 8*v.FlatRemote || st[0].HierStagedBytes != 0 || st[0].HierMemberBytes != 0 {
						t.Errorf("%s: the flat path fetched %d remote bytes (predicted %d) and counted two-level bytes %d/%d", label,
							st[0].BytesRemote, 8*v.FlatRemote, st[0].HierStagedBytes, st[0].HierMemberBytes)
					}
				}
			}
		}
	}
}

// TestABFTOnBandViews: with Gemm outputs silently corrupted at a planted
// rate, verification works on operands that are in-place views of the band
// (and on copied-out ones) — detected, restored, recomputed, and the result
// is a clean flat run's.
func TestABFTOnBandViews(t *testing.T) {
	tp := rt.Topology{NProcs: 8, ProcsPerNode: 4}
	r := newRig(t, tp)
	plan, err := faults.NewPlan(faults.Config{Seed: 9, BadBlockRate: 0.1}, tp.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range core.Cases {
		for _, fl := range []core.Flavor{core.FlavorDirect, core.FlavorCopy} {
			v := run{
				d: core.Dims{M: 48, N: 40, K: 56}, opts: core.Options{Case: cs, Flavor: fl, MaxTaskK: 8}, adopted: true,
				wrap:    func(c rt.Ctx) rt.Ctx { return faults.Inject(c, plan, nil) },
				hierOpt: func(o *core.Options) { o.ABFT = true },
			}
			flat, two, st := r.both(t, v)
			if st[1].ABFTDetected == 0 || st[1].ABFTRecomputed == 0 {
				t.Fatalf("%v flavour %d: %d corrupted blocks detected, %d recomputed — the plan planted none", cs, fl, st[1].ABFTDetected, st[1].ABFTRecomputed)
			}
			if st[1].HierStagedBytes == 0 {
				t.Fatalf("%v flavour %d: no operand came from the band", cs, fl)
			}
			bitsEqual(t, flat, two, fmt.Sprintf("abft %v flavour %d", cs, fl))
		}
	}
}

// TestStagedCtxInterceptsAllGets: the band wrapper overrides NbGetSub and
// Wait and nothing else, and that is every get there is — a contiguous one
// (rt.Get) asking for a staged region is served from the band and moves no
// remote byte, where an engine's own contiguous Get used to answer it past
// the wrapper. And the wrapper hides nothing beneath it: the engine's
// capabilities stay discoverable through it and the fault injector.
func TestStagedCtxInterceptsAllGets(t *testing.T) {
	const n = 16
	plan, err := faults.NewPlan(faults.Config{Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = armci.Run(rt.Topology{NProcs: 4, ProcsPerNode: 2}, func(raw rt.Ctx) {
		c := faults.Inject(raw, plan, nil)
		g, band := c.Malloc(2*n), c.Malloc(n)
		c.WriteBuf(c.Local(g), n, mat.Random(1, n, uint64(c.Rank())).Data)
		c.Barrier()
		if c.Rank() != 0 {
			return
		}
		// Stage the second half of rank 2's segment (another node) into
		// this rank's band, the way the outer level does.
		c.Wait(c.NbGetSub(g, 2, n, n, 1, n, c.Local(band), 0))
		s := &stagedCtx{Ctx: c, band: band, loc: map[bandKey]bandLoc{{g, 2, n, n, 1, n}: {member: 0}}}
		before := c.Stats().BytesRemote
		dst := c.LocalBuf(n)
		rt.Get(s, g, 2, n, n, dst, 0)
		if moved := c.Stats().BytesRemote - before; moved != 0 {
			t.Errorf("a contiguous get of a staged region moved %d remote bytes round the band", moved)
		}
		if want := mat.Random(1, n, 2).Data; !slices.Equal(c.ReadBuf(dst, 0, n), want) {
			t.Errorf("the band served %v, want %v", c.ReadBuf(dst, 0, n), want)
		}
		rt.Get(s, g, 2, 0, n, dst, 0) // not staged: the engine's
		if moved := c.Stats().BytesRemote - before; moved != 8*n {
			t.Errorf("a get of an unstaged region moved %d remote bytes, want %d", moved, 8*n)
		}
		for capability, found := range map[string]bool{
			"rt.Adopter":        rt.FindAdopter(s) != nil,
			"rt.BufferReleaser": rt.FindBufferReleaser(s) != nil,
		} {
			if !found {
				t.Errorf("%s not found through stagedCtx(Inject(engine))", capability)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// cancelAfter closes a channel when rank 0 has run n Gemms: a cancellation
// that lands mid-multiply at the same task every time.
type cancelAfter struct {
	rt.Ctx
	n    int
	once *sync.Once
	ch   chan struct{}
}

func (c *cancelAfter) Unwrap() rt.Ctx { return c.Ctx }

func (c *cancelAfter) Gemm(alpha float64, a, b rt.Mat, beta float64, cm rt.Mat) {
	c.Ctx.Gemm(alpha, a, b, beta, cm)
	if c.n--; c.n == 0 && c.Rank() == 0 {
		c.once.Do(func() { close(c.ch) })
	}
}

// TestCancelThenResumeOnBand: a cancellation between tasks of a two-level
// multiply returns core.ErrCancelled, gives the band back to the pool and
// leaves the team reusable; resuming on the same ledger and the same C then
// finishes the job to flat's bits.
func TestCancelThenResumeOnBand(t *testing.T) {
	// One P, so that no pooled segment hides in another P's private slot
	// when the pool is counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tp := rt.Topology{NProcs: 8, ProcsPerNode: 4}
	r := newRig(t, tp)
	d := core.Dims{M: 64, N: 64, K: 96}
	da, db, dc := core.Dists(r.g, d, core.NN)
	a, b := mat.Random(da.Rows, da.Cols, 3), mat.Random(db.Rows, db.Cols, 4)
	c0 := mat.Random(d.M, d.N, 5)
	multiply := func(out *mat.Matrix, two bool, opts core.Options, wrap func(rt.Ctx) rt.Ctx) []error {
		errs := make([]error, tp.NProcs)
		_, err := r.team.Run(func(c rt.Ctx) {
			ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
			if two {
				errs[c.Rank()] = MultiplyEx(wrap(c), From(tp, r.g), d, Options{Options: opts}, 1.25, -0.5, ga, gb, gc)
			} else {
				errs[c.Rank()] = core.MultiplyEx(c, r.g, d, opts, 1.25, -0.5, ga, gb, gc)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return errs
	}
	opts := core.Options{MaxTaskK: 8}
	want := c0.Clone()
	for rank, err := range multiply(want, false, opts, nil) {
		if err != nil {
			t.Fatalf("flat rank %d: %v", rank, err)
		}
	}

	drainBands()
	got := c0.Clone()
	cancel, once := make(chan struct{}), new(sync.Once)
	opts.Ledger, opts.Cancel = core.NewJobLedger(tp.NProcs), cancel
	cancelled := 0
	for rank, err := range multiply(got, true, opts, func(c rt.Ctx) rt.Ctx { return &cancelAfter{Ctx: c, n: 3, once: once, ch: cancel} }) {
		if err != nil && !errors.Is(err, core.ErrCancelled) {
			t.Fatalf("rank %d: %v, want ErrCancelled or nil", rank, err)
		}
		if err != nil {
			cancelled++
		}
	}
	done, total := opts.Ledger.Completed(), opts.Ledger.Total()
	if cancelled == 0 || done == 0 || done == total {
		t.Fatalf("%d ranks cancelled with %d of %d tasks done: the cancel did not land mid-multiply", cancelled, done, total)
	}
	if n := len(drainBands()); !raceEnabled && n != tp.NProcs {
		t.Fatalf("%d band segments in the pool after a cancelled multiply, want %d", n, tp.NProcs)
	}

	opts.Cancel = nil
	for rank, err := range multiply(got, true, opts, func(c rt.Ctx) rt.Ctx { return c }) {
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
	}
	if opts.Ledger.Completed() != total {
		t.Fatalf("resumed run left %d of %d tasks", total-opts.Ledger.Completed(), total)
	}
	bitsEqual(t, want, got, "cancelled then resumed on the ledger")
}

// TestStageSpanSeparatesOuterLevel: a traced two-level multiply shows the
// outer level as one stage span per rank — the staging gets and the publish
// barrier inside it — that ends before the executor's first issue burst.
func TestStageSpanSeparatesOuterLevel(t *testing.T) {
	tp := rt.Topology{NProcs: 8, ProcsPerNode: 4}
	r := newRig(t, tp)
	rec := obs.NewRecorder(tp.NProcs, 1<<12)
	r.team.SetRecorder(rec)
	r.both(t, run{d: core.Dims{M: 96, N: 96, K: 96}, opts: core.Options{MaxTaskK: 24, Flavor: core.FlavorCopy}, adopted: true})
	for rank := 0; rank < tp.NProcs; rank++ {
		var stage []obs.Event
		gets, barriers, issues := 0, 0, 0
		for _, e := range rec.ByLane(rank) {
			if e.Kind == obs.KindStage {
				stage = append(stage, e)
			}
		}
		if len(stage) != 1 {
			t.Fatalf("rank %d: %d stage spans, want 1 (the flat multiply records none)", rank, len(stage))
		}
		for _, e := range rec.ByLane(rank) {
			in := e.Start >= stage[0].Start && e.End <= stage[0].End
			switch {
			case in && e.Kind == obs.KindGet:
				gets++
			case in && e.Kind == obs.KindBarrier:
				barriers++
			case e.Kind == obs.KindIssue && e.Start >= stage[0].Start:
				if issues++; e.Start < stage[0].End {
					t.Errorf("rank %d: an executor issue burst starts inside the stage span", rank)
				}
			}
		}
		if gets == 0 || barriers != 1 || issues == 0 {
			t.Errorf("rank %d: stage span holds %d gets and %d barriers, %d issue bursts follow", rank, gets, barriers, issues)
		}
	}
}
