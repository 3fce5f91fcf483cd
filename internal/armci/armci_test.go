package armci

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/mat"
	"srumma/internal/rt"
)

func topo(n, ppn int, span bool) rt.Topology {
	return rt.Topology{NProcs: n, ProcsPerNode: ppn, DomainSpansMachine: span}
}

func TestRunValidatesTopology(t *testing.T) {
	if _, err := Run(topo(0, 1, false), func(rt.Ctx) {}); err == nil {
		t.Fatal("expected error for 0 procs")
	}
}

func TestRankAndSize(t *testing.T) {
	var seen [4]int32
	_, err := Run(topo(4, 2, false), func(c rt.Ctx) {
		if c.Size() != 4 {
			t.Errorf("Size = %d", c.Size())
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d ran %d times", r, n)
		}
	}
}

func TestMallocGetPut(t *testing.T) {
	_, err := Run(topo(4, 2, false), func(c rt.Ctx) {
		g := c.Malloc(8)
		local := c.Local(g).(*mat.Buf)
		for i := range local.Data {
			local.Data[i] = float64(c.Rank()*100 + i)
		}
		c.Barrier()
		// Every rank reads rank (r+1)%4's segment.
		src := (c.Rank() + 1) % 4
		dst := c.LocalBuf(8)
		rt.Get(c, g, src, 0, 8, dst, 0)
		for i, v := range dst.(*mat.Buf).Data {
			if v != float64(src*100+i) {
				t.Errorf("rank %d got %v at %d, want %d", c.Rank(), v, i, src*100+i)
			}
		}
		c.Barrier()
		// Rank 0 puts into rank 3's segment tail.
		if c.Rank() == 0 {
			b := c.LocalBuf(2).(*mat.Buf)
			b.Data[0], b.Data[1] = -1, -2
			c.Wait(c.(*ctx).NbPutSub(b, 0, g, 3, 6, 2, 1, 2))
		}
		c.Barrier()
		if c.Rank() == 3 {
			if local.Data[6] != -1 || local.Data[7] != -2 {
				t.Errorf("put did not land: %v", local.Data[6:])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMallocDifferentSizes(t *testing.T) {
	_, err := Run(topo(3, 1, false), func(c rt.Ctx) {
		g := c.Malloc(10 * (c.Rank() + 1))
		for r := 0; r < 3; r++ {
			if g.LenAt(r) != 10*(r+1) {
				t.Errorf("LenAt(%d) = %d", r, g.LenAt(r))
			}
		}
		c.Free(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNbGetCompletesBeforeWait(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		g := c.Malloc(4)
		c.Local(g).(*mat.Buf).Data[0] = float64(c.Rank() + 1)
		c.Barrier()
		dst := c.LocalBuf(4)
		h := rt.NbGet(c, g, 1-c.Rank(), 0, 1, dst, 0)
		if !h.Done() {
			t.Error("real-engine get should complete eagerly")
		}
		c.Wait(h)
		if dst.(*mat.Buf).Data[0] != float64(2-c.Rank()) {
			t.Errorf("rank %d read %v", c.Rank(), dst.(*mat.Buf).Data[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirectAccessSameDomain(t *testing.T) {
	_, err := Run(topo(4, 2, false), func(c rt.Ctx) {
		g := c.Malloc(1)
		c.Local(g).(*mat.Buf).Data[0] = float64(c.Rank())
		c.Barrier()
		buddy := c.Rank() ^ 1 // same node under ppn=2
		if !c.CanDirect(buddy) {
			t.Errorf("rank %d cannot direct-access node buddy %d", c.Rank(), buddy)
		}
		if v := c.Direct(g, buddy).(*mat.Buf).Data[0]; v != float64(buddy) {
			t.Errorf("direct read %v, want %d", v, buddy)
		}
		other := (c.Rank() + 2) % 4 // other node
		if c.CanDirect(other) {
			t.Errorf("rank %d should not direct-access %d across nodes", c.Rank(), other)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirectAcrossDomainsPanics(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		g := c.Malloc(1)
		c.Barrier()
		if c.Rank() == 0 {
			c.Direct(g, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "direct-access") {
		t.Fatalf("err = %v", err)
	}
}

func TestDomainSpansMachine(t *testing.T) {
	_, err := Run(topo(4, 2, true), func(c rt.Ctx) {
		for r := 0; r < 4; r++ {
			if !c.CanDirect(r) {
				t.Errorf("rank %d cannot direct-access %d on shared machine", c.Rank(), r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		b := c.LocalBuf(3).(*mat.Buf)
		if c.Rank() == 0 {
			b.Data[0], b.Data[1], b.Data[2] = 1, 2, 3
			c.Send(1, 7, b, 0, 3)
		} else {
			c.Recv(0, 7, b, 0, 3)
			if b.Data[0] != 1 || b.Data[2] != 3 {
				t.Errorf("recv got %v", b.Data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesNonOvertaking(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		b := c.LocalBuf(1).(*mat.Buf)
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				b.Data[0] = float64(i)
				c.Send(1, 0, b, 0, 1)
			}
		} else {
			for i := 0; i < 10; i++ {
				c.Recv(0, 0, b, 0, 1)
				if b.Data[0] != float64(i) {
					t.Errorf("message %d arrived as %v", i, b.Data[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsSeparateStreams(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		b := c.LocalBuf(1).(*mat.Buf)
		if c.Rank() == 0 {
			b.Data[0] = 10
			c.Send(1, 1, b, 0, 1)
			b.Data[0] = 20
			c.Send(1, 2, b, 0, 1)
		} else {
			// Receive tag 2 first even though tag 1 was sent first.
			c.Recv(0, 2, b, 0, 1)
			if b.Data[0] != 20 {
				t.Errorf("tag 2 got %v", b.Data[0])
			}
			c.Recv(0, 1, b, 0, 1)
			if b.Data[0] != 10 {
				t.Errorf("tag 1 got %v", b.Data[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecv(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		b := c.LocalBuf(1).(*mat.Buf)
		if c.Rank() == 0 {
			b.Data[0] = 42
			c.Wait(c.Isend(1, 0, b, 0, 1))
		} else {
			h := c.Irecv(0, 0, b, 0, 1)
			c.Wait(h)
			if !h.Done() || b.Data[0] != 42 {
				t.Errorf("irecv got %v done=%v", b.Data[0], h.Done())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGemmExecutesForReal(t *testing.T) {
	a := mat.Random(6, 5, 1)
	bm := mat.Random(5, 7, 2)
	want := mat.New(6, 7)
	if err := mat.GemmNaive(false, false, 2, a, bm, 0, want); err != nil {
		t.Fatal(err)
	}
	_, err := Run(topo(1, 1, false), func(c rt.Ctx) {
		ab := c.LocalBuf(30).(*mat.Buf)
		bb := c.LocalBuf(35).(*mat.Buf)
		cb := c.LocalBuf(42).(*mat.Buf)
		copy(ab.Data, a.Data)
		copy(bb.Data, bm.Data)
		c.Gemm(2,
			rt.Mat{Buf: ab, LD: 5, Rows: 6, Cols: 5},
			rt.Mat{Buf: bb, LD: 7, Rows: 5, Cols: 7},
			0,
			rt.Mat{Buf: cb, LD: 7, Rows: 6, Cols: 7})
		got := mat.FromData(6, 7, cb.Data)
		if d := mat.MaxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("gemm diff %g", d)
		}
		if c.Stats().Flops != 2*6*7*5 {
			t.Errorf("flops = %v", c.Stats().Flops)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackThroughCtx(t *testing.T) {
	_, err := Run(topo(1, 1, false), func(c rt.Ctx) {
		src := c.LocalBuf(20).(*mat.Buf)
		for i := range src.Data {
			src.Data[i] = float64(i)
		}
		// View rows 1..2, cols 1..3 of a 4x5 layout.
		v := rt.Mat{Buf: src, Off: 1*5 + 1, LD: 5, Rows: 2, Cols: 3}
		packed := c.LocalBuf(6)
		c.Pack(v, packed, 0)
		want := []float64{6, 7, 8, 11, 12, 13}
		for i, w := range want {
			if packed.(*mat.Buf).Data[i] != w {
				t.Fatalf("packed[%d] = %v, want %v", i, packed.(*mat.Buf).Data[i], w)
			}
		}
		// The transposing unpack lands the packed block as its transpose.
		dst := c.LocalBuf(6)
		c.UnpackTranspose(packed, 0, rt.Mat{Buf: dst, LD: 2, Rows: 3, Cols: 2})
		if got := c.ReadBuf(dst, 0, 6); !slices.Equal(got, []float64{6, 11, 7, 12, 8, 13}) {
			t.Fatalf("unpacked transpose %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsClassifySharedVsRemote(t *testing.T) {
	stats, err := Run(topo(4, 2, false), func(c rt.Ctx) {
		g := c.Malloc(4)
		c.Barrier()
		dst := c.LocalBuf(4)
		if c.Rank() == 0 {
			rt.Get(c, g, 1, 0, 4, dst, 0) // same node (ppn=2)
			rt.Get(c, g, 2, 0, 4, dst, 0) // other node
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].BytesShared != 32 || stats[0].BytesRemote != 32 {
		t.Fatalf("stats = %+v", stats[0])
	}
	if stats[0].GetsShared != 1 || stats[0].GetsRemote != 1 {
		t.Fatalf("get counts = %+v", stats[0])
	}
}

func TestPanicPropagatesWithRank(t *testing.T) {
	_, err := Run(topo(3, 1, false), func(c rt.Ctx) {
		c.Barrier()
		if c.Rank() == 2 {
			panic("kaboom")
		}
		c.Barrier() // others must not hang after the abort
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestGetRangeChecked(t *testing.T) {
	_, err := Run(topo(2, 1, false), func(c rt.Ctx) {
		g := c.Malloc(4)
		c.Barrier()
		dst := c.LocalBuf(4)
		rt.Get(c, g, 0, 2, 4, dst, 0) // overruns the 4-element segment
	})
	if err == nil || !strings.Contains(err.Error(), "region ends at 6 of 4") {
		t.Fatalf("err = %v", err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var flag int32
	_, err := Run(topo(8, 4, false), func(c rt.Ctx) {
		if c.Rank() == 0 {
			atomic.StoreInt32(&flag, 1)
		}
		c.Barrier()
		if atomic.LoadInt32(&flag) != 1 {
			t.Error("barrier did not order the store")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogFiresOnDeadlock(t *testing.T) {
	_, err := RunWithTimeout(topo(2, 1, false), 50*time.Millisecond, func(c rt.Ctx) {
		if c.Rank() == 0 {
			c.Recv(1, 0, c.LocalBuf(4), 0, 4) // never sent: wedged in the runtime
		}
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v", err)
	}
}

func TestWatchdogQuietOnSuccess(t *testing.T) {
	_, err := RunWithTimeout(topo(4, 2, false), 5*time.Second, func(c rt.Ctx) {
		g := c.Malloc(16)
		c.Barrier()
		rt.Get(c, g, (c.Rank()+1)%4, 0, 16, c.LocalBuf(16), 0)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogNamesStuckRank(t *testing.T) {
	stall := make(chan struct{})
	defer close(stall)
	_, err := RunWithTimeout(topo(2, 1, false), 50*time.Millisecond, func(c rt.Ctx) {
		if c.Rank() == 1 {
			<-stall // blocked outside the runtime: cannot be reclaimed
		}
	})
	if err == nil || !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("err = %v", err)
	}
}
