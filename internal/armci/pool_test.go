package armci

import (
	"testing"

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

func TestLocalBufZeroedAfterReuse(t *testing.T) {
	c := testCtx()
	b := c.LocalBuf(100).(*buffer)
	for i := range b.data {
		b.data[i] = 7
	}
	c.ReleaseBuf(b)
	// The recycled buffer must come back zeroed (LocalBuf's contract) even
	// at a different length in the same size class.
	b2 := c.LocalBuf(120).(*buffer)
	if len(b2.data) != 120 {
		t.Fatalf("got %d elements, want 120", len(b2.data))
	}
	for i, v := range b2.data {
		if v != 0 {
			t.Fatalf("reused buffer dirty at %d: %g", i, v)
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
		c.ReleaseBuf(&buffer{data: make([]float64, 128)})
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
	if got := defaultKernelThreads(1 << 20); got != 1 {
		t.Fatalf("default for huge nprocs = %d, want 1", got)
	}
	if got := defaultKernelThreads(1); got < 1 {
		t.Fatalf("default for 1 rank = %d, want >= 1", got)
	}
}

// TestSetKernelThreads exercises the rt.KernelTuner plumbing end to end on
// the real engine: a multi-threaded Gemm must produce the same numbers as
// the serial one (the parallel kernel preserves summation order).
func TestSetKernelThreads(t *testing.T) {
	topo := rt.Topology{NProcs: 1, ProcsPerNode: 1}
	var serial, parallel []float64
	for _, threads := range []int{1, 4} {
		threads := threads
		_, err := Run(topo, func(c rt.Ctx) {
			tuner := rt.FindKernelTuner(c)
			if tuner == nil {
				panic("armci ctx must implement rt.KernelTuner")
			}
			tuner.SetKernelThreads(threads)
			n := 96
			buf := c.LocalBuf(3 * n * n)
			vals := make([]float64, n*n)
			for i := range vals {
				vals[i] = float64(i%17) - 8
			}
			c.WriteBuf(buf, 0, vals)
			c.WriteBuf(buf, n*n, vals)
			am := rt.Mat{Buf: buf, Off: 0, LD: n, Rows: n, Cols: n}
			bm := rt.Mat{Buf: buf, Off: n * n, LD: n, Rows: n, Cols: n}
			cm := rt.Mat{Buf: buf, Off: 2 * n * n, LD: n, Rows: n, Cols: n}
			c.Gemm(1, am, bm, 0, cm)
			out := c.ReadBuf(buf, 2*n*n, n*n)
			if threads == 1 {
				serial = out
			} else {
				parallel = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("element %d: serial %g != parallel %g", i, serial[i], parallel[i])
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
		for i, v := range c.Local(g).(*buffer).data {
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
