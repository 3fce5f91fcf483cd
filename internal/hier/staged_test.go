package hier

// Gates for the per-region outer level: what is staged is read in place,
// what has one consumer is fetched by it, and the band's memory is pooled and
// handed out unzeroed. Every test holds the two-level result to flat SRUMMA
// bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
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
// P=16 and P=8), column-mates sharing B's (half a column per group), and a
// single group. Groups of 8 at P=16 run twice, as they did when one row set
// the group size explicitly and kept its name: the round-robin deals the
// second row the other buffering of each case's large shapes and another
// third of the small matrix under -race.
var topologies = []struct {
	rt.Topology
	name string // the subtest's name when not topoName's
}{
	{Topology: rt.Topology{NProcs: 16, ProcsPerNode: 4}},
	{Topology: rt.Topology{NProcs: 16, ProcsPerNode: 8}},
	{Topology: rt.Topology{NProcs: 16, ProcsPerNode: 2}},
	{Topology: rt.Topology{NProcs: 16, ProcsPerNode: 8}, name: "P16/ppn8/gs8"},
	{Topology: rt.Topology{NProcs: 8, ProcsPerNode: 4}},
	{Topology: rt.Topology{NProcs: 4, ProcsPerNode: 4}},
}

// topoName keeps the "gs0" (groups are the domains) of earlier revisions'
// subtest names, so the names stay comparable.
func topoName(tp rt.Topology) string {
	return fmt.Sprintf("P%d/ppn%d/gs0", tp.NProcs, tp.ProcsPerNode)
}

// TestStagedPathsBitIdentical is the matrix: every topology x transpose case
// x executor variant x placement on shapes that leave ranks without rows or
// columns, and the large shapes once per (topology, case), the executor
// variant and placement dealt round-robin across them.
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
	for ti, row := range topologies {
		name := row.name
		if name == "" {
			name = topoName(row.Topology)
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, row.Topology)
			check := func(v run) {
				flat, two, _ := r.both(t, v)
				bitsEqual(t, flat, two, fmt.Sprintf("%+v %+v adopted=%v", v.d, v.opts, v.adopted))
			}
			n := 0
			for _, cs := range core.Cases {
				for vi, ev := range variants {
					opts := core.Options{Case: cs, MaxTaskK: ev.maxK, SingleBuffer: ev.single}
					for _, adopted := range []bool{false, true} {
						if n++; raceEnabled && n%3 != ti%3 {
							continue // a third of the small matrix per topology under -race
						}
						for _, d := range small {
							check(run{d: d, opts: opts, adopted: adopted})
						}
					}
					if !testing.Short() && vi == (ti+int(cs))%len(variants) {
						for bi, d := range big {
							check(run{d: d, opts: opts, adopted: (bi+vi)%2 == 0})
						}
					}
				}
			}
		})
	}
}

// poisonBands empties the buffer pool and refills every class a band of 1
// to maxElems elements can draw from with one NaN-filled buffer per member,
// so members that draw their bands next all draw NaN.
func poisonBands(members, maxElems int) {
	// Two collections empty every sync.Pool (the first moves what it holds
	// to the victim cache, the second drops that), so nothing unpoisoned
	// is left to be drawn.
	runtime.GC()
	runtime.GC()
	bufs := make([]*mat.Buf, members)
	for n := 1; n <= maxElems; n = cap(bufs[0].Data) + 1 {
		for i := range bufs {
			bufs[i] = mat.GetBuf(n)
			all := bufs[i].Data[:cap(bufs[i].Data)]
			for j := range all {
				all[j] = math.NaN()
			}
		}
		for _, b := range bufs {
			mat.PutBuf(b)
		}
	}
}

// TestPoisonedBandNeverRead: the band is handed out unzeroed, so whatever a
// previous call (of another shape) left in it must never reach a Gemm. With
// every pool class a band can draw from NaN before each two-level call, one
// unstaged element read anywhere would turn C into NaN; bit-identity to flat
// proves none is.
func TestPoisonedBandNeverRead(t *testing.T) {
	// A collection empties the pool, and the poison with it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	shapes := []core.Dims{{M: 96, N: 80, K: 112}, {M: 33, N: 47, K: 70}, {M: 7, N: 5, K: 3}, {M: 128, N: 128, K: 128}, {M: 40, N: 2, K: 9}}
	for _, tp := range []rt.Topology{{NProcs: 16, ProcsPerNode: 8}, {NProcs: 8, ProcsPerNode: 4}, {NProcs: 16, ProcsPerNode: 2}} {
		r := newRig(t, tp)
		for i, d := range shapes {
			cs := core.Cases[i%len(core.Cases)]
			// Poison after the flat multiply, which draws from the same
			// pool, and before any member draws its band: a member's
			// share holds at most all of A and B.
			poison := func(c rt.Ctx) rt.Ctx {
				if c.Rank() == 0 {
					poisonBands(tp.NProcs, d.M*d.K+d.K*d.N)
				}
				c.Barrier()
				return c
			}
			v := run{d: d, opts: core.Options{Case: cs, MaxTaskK: 16 * (i % 2)}, adopted: true, wrap: poison}
			flat, two, st := r.both(t, v)
			bitsEqual(t, flat, two, fmt.Sprintf("%s %+v %v", topoName(tp), d, cs))
			if d.M >= 33 && d.N >= 33 && st[1].HierStagedBytes == 0 {
				t.Fatalf("%s %+v %v: nothing was staged, the poison was never at risk", topoName(tp), d, cs)
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
		for _, adopted := range []bool{false, true} {
			flat, two, st := r.both(t, run{d: d, adopted: adopted, same: true})
			label := fmt.Sprintf("%s adopted=%v", topoName(tp), adopted)
			bitsEqual(t, flat, two, label)
			v := PredictVolumes(From(tp, r.g), d, Options{})
			if st[1].BytesRemote != 8*v.OuterRemote || st[0].BytesRemote != 8*v.FlatRemote {
				t.Errorf("%s: remote bytes hier %d flat %d, predicted %d and %d", label, st[1].BytesRemote, st[0].BytesRemote, 8*v.OuterRemote, 8*v.FlatRemote)
			}
			if v.Staged == 0 {
				t.Fatalf("%s: the topology stages nothing", label)
			}
		}
	}
}

// TestStagedSplitCounted: the rank meters say what the outer level did with
// the group's fetches — nothing staged where nothing is shared, the
// predicted split where something is — and every byte of the group's union
// is fetched exactly once, by the stager or by the one consumer; the
// members' own fetches, like the flat path's, are read through the engine's
// windows, into no scratch (stagedCtx forwards them). The last topology has one rank per group: all it
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
			for _, single := range []bool{false, true} {
				opts := core.Options{Case: cs, MaxTaskK: 24, SingleBuffer: single}
				flat, two, st := r.both(t, run{d: d, opts: opts, adopted: true})
				v := PredictVolumes(From(tc.topo, r.g), d, Options{Options: opts})
				label := fmt.Sprintf("%s %v single=%v", topoName(tc.topo), cs, single)
				bitsEqual(t, flat, two, label)
				if st[1].HierStagedBytes != 8*v.Staged || st[1].HierMemberBytes != 8*v.MemberFetch {
					t.Errorf("%s: counted %d staged %d member-fetched, predicted %d and %d", label,
						st[1].HierStagedBytes, st[1].HierMemberBytes, 8*v.Staged, 8*v.MemberFetch)
				}
				if st[0].ScratchBytes != 0 || st[1].ScratchBytes != 0 {
					t.Errorf("%s: fetch scratch %d B flat, %d B two-level: a remote block was copied, not windowed", label,
						st[0].ScratchBytes, st[1].ScratchBytes)
				}
				if cs == core.NN && (v.Staged > 0) != tc.shares {
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

// TestABFTOnBandViews: with Gemm outputs silently corrupted at a planted
// rate, verification works on operands that are in-place views of the band
// — detected, restored, recomputed, and the result is a clean flat run's.
func TestABFTOnBandViews(t *testing.T) {
	tp := rt.Topology{NProcs: 8, ProcsPerNode: 4}
	r := newRig(t, tp)
	plan, err := faults.NewPlan(faults.Config{Seed: 9, BadBlockRate: 0.1}, tp.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range core.Cases {
		v := run{
			d: core.Dims{M: 48, N: 40, K: 56}, opts: core.Options{Case: cs, MaxTaskK: 8}, adopted: true,
			wrap:    func(c rt.Ctx) rt.Ctx { return faults.Inject(c, plan, nil) },
			hierOpt: func(o *core.Options) { o.ABFT = true },
		}
		flat, two, st := r.both(t, v)
		if st[1].ABFTDetected == 0 || st[1].ABFTRecomputed == 0 {
			t.Fatalf("%v: %d corrupted blocks detected, %d recomputed — the plan planted none", cs, st[1].ABFTDetected, st[1].ABFTRecomputed)
		}
		if st[1].HierStagedBytes == 0 {
			t.Fatalf("%v: no operand came from the band", cs)
		}
		bitsEqual(t, flat, two, fmt.Sprintf("abft %v", cs))
	}
}

// TestStagedCtxServesBandInPlace: the band wrapper answers InPlace for the
// regions staged into it — a view of the band holding the region's values —
// and for nothing else, and it hides nothing beneath it: a get, staged region
// or not, is the engine's, and the engine's capabilities stay discoverable
// through the wrapper and the fault injector.
func TestStagedCtxServesBandInPlace(t *testing.T) {
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
		want := mat.Random(1, n, 2).Data
		m, ok := s.InPlace(g, 2, n, n, 1, n)
		if !ok || m.Rows != 1 || m.Cols != n || m.Remote {
			t.Fatalf("InPlace of the staged region = %+v, %v; want this rank's band, 1x%d", m, ok, n)
		}
		if got := c.ReadBuf(m.Buf, m.Off, n); !slices.Equal(got, want) {
			t.Errorf("the band holds %v, want %v", got, want)
		}
		if _, ok := s.InPlace(g, 2, 0, n, 1, n); ok {
			t.Error("InPlace answered for a region nobody staged")
		}
		before := c.Stats().BytesRemote
		dst := c.LocalBuf(n)
		rt.Get(s, g, 2, n, n, dst, 0)
		if moved := c.Stats().BytesRemote - before; moved != 8*n {
			t.Errorf("a get through the wrapper moved %d remote bytes, want the engine's %d", moved, 8*n)
		}
		if !slices.Equal(c.ReadBuf(dst, 0, n), want) {
			t.Errorf("the get returned %v, want %v", c.ReadBuf(dst, 0, n), want)
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

// mallocCounter counts the collective allocations made through it.
type mallocCounter struct {
	rt.Ctx
	n *atomic.Int64
}

func (m mallocCounter) Unwrap() rt.Ctx { return m.Ctx }

func (m mallocCounter) Malloc(n int) rt.Global {
	m.n.Add(1)
	return m.Ctx.Malloc(n)
}

// TestCopyFlavourRefused: the two-level multiply runs only FlavorDirect.
// Asked for FlavorCopy, every rank returns an error before a band exists —
// nothing allocated, nothing drawn from the pool, C untouched — and the
// team stays usable.
func TestCopyFlavourRefused(t *testing.T) {
	for _, tp := range []rt.Topology{{NProcs: 8, ProcsPerNode: 4}, {NProcs: 4, ProcsPerNode: 4, DomainSpansMachine: true}} {
		r := newRig(t, tp)
		d := core.Dims{M: 32, N: 32, K: 32}
		da, db, dc := core.Dists(r.g, d, core.NN)
		a, b := mat.Random(da.Rows, da.Cols, 1), mat.Random(db.Rows, db.Cols, 2)
		c0 := mat.Random(d.M, d.N, 3)
		out := c0.Clone()
		errs := make([]error, tp.NProcs)
		var mallocs atomic.Int64
		held := mat.BufHeld()
		_, err := r.team.Run(func(c rt.Ctx) {
			ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
			opts := Options{Options: core.Options{Flavor: core.FlavorCopy}}
			errs[c.Rank()] = Multiply(mallocCounter{c, &mallocs}, From(tp, r.g), d, opts, ga, gb, gc)
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, err := range errs {
			if err == nil {
				t.Fatalf("%s rank %d: FlavorCopy ran", topoName(tp), rank)
			}
		}
		if mallocs.Load() != 0 || mat.BufHeld() != held {
			t.Errorf("%s: refused multiply allocated %d segments and kept %d B of the pool", topoName(tp), mallocs.Load(), mat.BufHeld()-held)
		}
		bitsEqual(t, c0, out, topoName(tp)+" C after a refused multiply")
		flat, two, _ := r.both(t, run{d: d, adopted: true})
		bitsEqual(t, flat, two, topoName(tp)+" after the refusal")
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
// multiply returns core.ErrCancelled, gives the band (and the scratch) back
// to the pool and leaves the team reusable; resuming on the same ledger and
// the same C then finishes the job to flat's bits.
func TestCancelThenResumeOnBand(t *testing.T) {
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

	held := mat.BufHeld()
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
	if out := mat.BufHeld() - held; out != 0 {
		t.Fatalf("%d B of pooled storage still out after a cancelled multiply", out)
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
// barrier inside it — that ends before the executor's first issue burst. In
// domains of two on a 4x4 grid the members stage the column's B blocks they
// share and each fetches its own row's A blocks.
func TestStageSpanSeparatesOuterLevel(t *testing.T) {
	tp := rt.Topology{NProcs: 16, ProcsPerNode: 2}
	r := newRig(t, tp)
	rec := obs.NewRecorder(tp.NProcs, 1<<12)
	r.team.SetRecorder(rec)
	r.both(t, run{d: core.Dims{M: 96, N: 96, K: 96}, opts: core.Options{MaxTaskK: 24}, adopted: true})
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
