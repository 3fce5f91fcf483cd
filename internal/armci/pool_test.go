package armci

import (
	"math"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// testCtx builds a standalone ctx (no Run harness) for allocation tests.
func testCtx() *ctx {
	topo := rt.Topology{NProcs: 1, ProcsPerNode: 1}
	r := &runtime{topo: topo, barrier: newBarrier(1), mbox: newMailbox(), slots: make(map[int]*global)}
	c := &ctx{rt: r}
	c.Init(0, 1)
	return c
}

// poisonScratch empties the buffer pool and refills every class a request
// of 1 to maxElems elements can draw from with perClass NaN-filled buffers,
// so the next LocalBufs of those sizes come back NaN.
func poisonScratch(maxElems, perClass int) {
	// Two collections empty every sync.Pool (the first moves what it holds
	// to the victim cache, the second drops that), so nothing unpoisoned
	// is left to be drawn.
	goruntime.GC()
	goruntime.GC()
	bufs := make([]*mat.Buf, perClass)
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

// TestPoisonedScratchNeverRead: LocalBuf hands recycled scratch out as it
// was left, so no multiply may read a scratch element it has not written.
// With every pool class a multiply takes its pipe buffers from refilled
// with NaN before each run, one unwritten element read anywhere would turn
// C into NaN; a NaN-free C bit-identical to an unpoisoned run proves none
// is. Every transpose case runs at ragged shapes, twice on one persistent
// team, on a topology where every block is fetched, under the flavor that
// copies every fetch (the other reads cross-domain blocks through windows).
func TestPoisonedScratchNeverRead(t *testing.T) {
	// A collection empties the pool, and the poison with it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const procs = 4
	g, err := grid.Square(procs)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: procs, ProcsPerNode: 1}
	tm, err := NewTeam(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	shapes := []core.Dims{{M: 37, N: 29, K: 41}, {M: 61, N: 7, K: 83}, {M: 5, N: 53, K: 300}}
	for i, d := range shapes {
		for _, cs := range core.Cases {
			opts := core.Options{Case: cs, Flavor: core.FlavorCopy, MaxTaskK: 16 * (i % 2)}
			da, db, dc := core.Dists(g, d, cs)
			a, b := mat.Random(da.Rows, da.Cols, 5), mat.Random(db.Rows, db.Cols, 6)
			run := func() (*mat.Matrix, int64) {
				out := mat.New(d.M, d.N)
				stats, err := tm.Run(func(c rt.Ctx) {
					ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
					if err := core.Multiply(c, g, d, opts, ga, gb, gc); err != nil {
						panic(err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				var scratch int64
				for _, st := range stats {
					scratch += st.ScratchBytes
				}
				return out, scratch
			}
			clean, scratch := run()
			if scratch == 0 {
				t.Fatalf("%+v %v: no scratch was taken, the poison was never at risk", d, cs)
			}
			for j, v := range clean.Data {
				if math.IsNaN(v) {
					t.Fatalf("%+v %v: C[%d] is NaN: an unwritten scratch element was read", d, cs, j)
				}
			}
			for rep := 0; rep < 2; rep++ {
				// A pipe buffer holds one fetched block of A or of B.
				poisonScratch(max(d.M, d.N)*d.K, 4*procs)
				got, _ := run()
				for j := range clean.Data {
					if math.Float64bits(got.Data[j]) != math.Float64bits(clean.Data[j]) {
						t.Fatalf("%+v %v run %d: C[%d] = %v over poisoned scratch, %v over unpoisoned", d, cs, rep, j, got.Data[j], clean.Data[j])
					}
				}
			}
		}
	}
}

func TestLocalBufSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	c := testCtx()
	c.ReleaseBuf(c.LocalBuf(5000)) // warm the class pool
	if avg := testing.AllocsPerRun(50, func() {
		c.ReleaseBuf(c.LocalBuf(5000))
	}); avg != 0 {
		t.Fatalf("LocalBuf/ReleaseBuf cycle allocates %.1f objects, want 0", avg)
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestReleaseBufForeignBufferPanics(t *testing.T) {
	c := testCtx()
	// A buffer LocalBuf did not produce — even one with a plausible pooled
	// capacity — must be rejected loudly: pooling it would hand aliased
	// memory to a later LocalBuf.
	mustPanic(t, "ReleaseBuf(hand-built buffer)", func() {
		c.ReleaseBuf(&mat.Buf{Data: make([]float64, 128)})
	})
}

func TestReleaseBufGlobalSegmentPanics(t *testing.T) {
	c := testCtx()
	g := c.Malloc(64)
	// Releasing a live Global segment is the catastrophic misuse: the pool
	// would hand the array under a distributed operand to the next scratch
	// request.
	mustPanic(t, "ReleaseBuf(Local(g))", func() {
		c.ReleaseBuf(c.Local(g))
	})
}

func TestReleaseBufDoubleReleasePanics(t *testing.T) {
	c := testCtx()
	b := c.LocalBuf(1000)
	c.ReleaseBuf(b)
	mustPanic(t, "second ReleaseBuf", func() {
		c.ReleaseBuf(b)
	})
	// A fresh hand-out of the same pooled header must be releasable again.
	b2 := c.LocalBuf(1000)
	c.ReleaseBuf(b2)
}

type foreignBuf struct{}

func (foreignBuf) Len() int { return 0 }

func TestReleaseBufForeignTypePanics(t *testing.T) {
	c := testCtx()
	mustPanic(t, "ReleaseBuf(foreign type)", func() {
		c.ReleaseBuf(foreignBuf{})
	})
}

// TestMailboxSteadyStateNoAlloc: after the first exchange establishes the
// queues and the payload pool, a buffered send->recv round trip must not
// allocate. This is the per-message copy the baselines pay on every panel
// broadcast step.
func TestMailboxSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	m := newMailbox()
	k := msgKey{src: 0, dst: 1, tag: 3}
	payload := make([]float64, 2048)
	dst := make([]float64, 2048)
	cycle := func() {
		m.send(k, payload)
		h := m.recv(k, dst)
		if !h.Done() {
			t.Fatal("buffered recv should complete immediately")
		}
	}
	cycle() // warm queue and pool
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("mailbox send/recv cycle allocates %.1f objects, want 0", avg)
	}
}

func TestMailboxPreservesOrderWithPooling(t *testing.T) {
	m := newMailbox()
	k := msgKey{src: 0, dst: 1, tag: 0}
	for i := 0; i < 8; i++ {
		m.send(k, []float64{float64(i)})
	}
	for i := 0; i < 8; i++ {
		var got [1]float64
		if h := m.recv(k, got[:]); !h.Done() {
			t.Fatalf("recv %d not immediate", i)
		}
		if got[0] != float64(i) {
			t.Fatalf("message %d delivered out of order: got %g", i, got[0])
		}
	}
}

// TestKernelThreadsDefault checks the oversubscription guard: with more
// ranks than GOMAXPROCS each rank gets exactly one kernel worker.
func TestKernelThreadsDefault(t *testing.T) {
	if got := DefaultKernelThreads(1 << 20); got != 1 {
		t.Fatalf("default for huge nprocs = %d, want 1", got)
	}
	if got := DefaultKernelThreads(1); got < 1 {
		t.Fatalf("default for 1 rank = %d, want >= 1", got)
	}
}

// TestKernelWidthIsDerived runs a 2-rank, one-domain multiply through
// windows at GOMAXPROCS 4, where each rank's local dgemm is 2 workers wide
// (GemmParallel stripes beside the other rank's), and at GOMAXPROCS 2, where
// it is 1 wide: the width on every ctx is GOMAXPROCS / nprocs, and the two
// products are bit-identical (the parallel kernel keeps summation order).
// Raising GOMAXPROCS itself makes the wide case run on any machine.
func TestKernelWidthIsDerived(t *testing.T) {
	g, err := grid.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: 2, ProcsPerNode: 2}
	d := core.Dims{M: 160, N: 144, K: 128}
	opts := core.Options{Flavor: core.FlavorDirect}
	da, db, dc := core.Dists(g, d, opts.Case)
	a, b := mat.Random(da.Rows, da.Cols, 7), mat.Random(db.Rows, db.Cols, 8)
	multiply := func(procs int) *mat.Matrix {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		out := mat.New(d.M, d.N)
		widths := make([]int, topo.NProcs)
		if _, err := Run(topo, func(c rt.Ctx) {
			widths[c.Rank()] = c.(*ctx).kernelThreads
			ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
			if err := core.Multiply(c, g, d, opts, ga, gb, gc); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for rank, w := range widths {
			if want := procs / topo.NProcs; w != want {
				t.Fatalf("GOMAXPROCS %d: rank %d kernel width %d, want %d", procs, rank, w, want)
			}
		}
		return out
	}
	wide, narrow := multiply(4), multiply(2)
	for i := range narrow.Data {
		if wide.Data[i] != narrow.Data[i] {
			t.Fatalf("element %d: width 2 %g != width 1 %g", i, wide.Data[i], narrow.Data[i])
		}
	}
}

// TestMallocOwnSegmentOneExchange pins the collective allocation: every
// rank gets a zeroed segment of the size IT asked for (none included), the
// exchange costs one barrier — each rank allocates and first-touches its
// own segment on its own goroutine, there is no phase in which rank 0 works
// while the others wait — and Malloc, Adopt and Free advance the collective
// call sequence by one each, identically on every rank.
func TestMallocOwnSegmentOneExchange(t *testing.T) {
	const n = 4
	rec := obs.NewRecorder(n, 0)
	window := make([]float64, 3)
	_, err := RunTraced(rt.Topology{NProcs: n, ProcsPerNode: 2}, rec, func(c rt.Ctx) {
		me := c.Rank()
		g := c.Malloc(1000 * me)
		for r := 0; r < n; r++ {
			if g.LenAt(r) != 1000*r {
				t.Errorf("rank %d sees LenAt(%d) = %d", me, r, g.LenAt(r))
			}
		}
		if g.LD() != 0 {
			t.Errorf("allocated Global reports leading dimension %d", g.LD())
		}
		for i, v := range c.Local(g).(*mat.Buf).Data {
			if v != 0 {
				t.Errorf("rank %d: fresh segment dirty at %d", me, i)
				break
			}
		}
		a := c.(rt.Adopter).Adopt(window[:me%2], 3)
		c.Free(a)
		c.Free(g)
		if seq := c.(*ctx).collSeq; seq != 4 {
			t.Errorf("rank %d: collective sequence at %d after Malloc, Adopt, Free, Free", me, seq)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		barriers := 0
		for _, e := range rec.ByLane(r) {
			if e.Kind == obs.KindBarrier {
				barriers++
			}
		}
		// One per Malloc, Adopt and Free.
		if barriers != 4 {
			t.Errorf("rank %d entered %d barriers for Malloc+Adopt+2 Free, want 4", r, barriers)
		}
	}
}
