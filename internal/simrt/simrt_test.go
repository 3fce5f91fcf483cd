package simrt

import (
	"math"
	"strings"
	"testing"

	"srumma/internal/machine"
	"srumma/internal/rt"
)

// testProfile is a round-numbers cluster profile: 2-way nodes, 1 GB/s
// network with 10 us latency, 10 GB/s memory, zero-copy RMA, 16 KB eager
// threshold.
func testProfile() machine.Profile {
	return machine.Profile{
		Name:             "test",
		ProcsPerNode:     2,
		PeakFlops:        1e9,
		GemmSurface:      0, // flat dgemm rate: exact time math in tests
		RemoteGemmDerate: 1,
		MemBW:            1e10,
		MemLatency:       0,
		NetBW:            1e9,
		NetLatency:       10e-6,
		RMALatency:       10e-6,
		ZeroCopy:         true,
		HostCopyBW:       500e6,
		MPILatency:       5e-6,
		MPIBW:            1e9,
		EagerThreshold:   16 << 10,
	}
}

func near(t *testing.T, got, want, tolFrac float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tolFrac*math.Abs(want)+1e-12 {
		t.Fatalf("%s = %.9g, want ~%.9g", what, got, want)
	}
}

func TestGemmChargesModeledTime(t *testing.T) {
	res, err := Run(testProfile(), 1, func(c rt.Ctx) {
		b := c.LocalBuf(100 * 100)
		cbuf := c.LocalBuf(100 * 100)
		m := rt.Mat{Buf: b, LD: 100, Rows: 100, Cols: 100}
		cm := rt.Mat{Buf: cbuf, LD: 100, Rows: 100, Cols: 100}
		c.Gemm(1, m, m, 0, cm)
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, res.Time, 2*100*100*100/1e9, 1e-6, "gemm time")
	near(t, res.Stats[0].Flops, 2e6, 1e-9, "flops")
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	_, err := Run(testProfile(), 1, func(c rt.Ctx) {
		a := rt.Mat{Buf: c.LocalBuf(12), LD: 4, Rows: 3, Cols: 4}
		b := rt.Mat{Buf: c.LocalBuf(10), LD: 2, Rows: 5, Cols: 2} // inner 4 != 5
		cm := rt.Mat{Buf: c.LocalBuf(6), LD: 2, Rows: 3, Cols: 2}
		c.Gemm(1, a, b, 0, cm)
	})
	if err == nil || !strings.Contains(err.Error(), "Gemm shapes") {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteGetIsNonblocking(t *testing.T) {
	// Rank 0 (node 0) gets 1 MB from rank 2 (node 1) and overlaps a 2 ms
	// compute. Total should be ~max(compute, transfer), not the sum.
	prof := testProfile()
	res, err := Run(prof, 4, func(c rt.Ctx) {
		g := c.Malloc(1 << 17) // 1 MB segments
		if c.Rank() == 0 {
			dst := c.LocalBuf(1 << 17)
			h := rt.NbGet(c, g, 2, 0, 1<<17, dst, 0)
			// 2 ms of compute: 1e6 elements at 1 GFLOP/s = 2*1e6... use
			// explicit square: 100x100x100 gemm = 2e6 flops = 2 ms.
			b := c.LocalBuf(100 * 100)
			cb := c.LocalBuf(100 * 100)
			m := rt.Mat{Buf: b, LD: 100, Rows: 100, Cols: 100}
			c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 100, Rows: 100, Cols: 100})
			c.Wait(h)
			if w := c.Stats().WaitTime; w > 1e-4 {
				t.Errorf("rank 0 waited %.3gs despite overlap", w)
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Transfer: 1 MB at 1 GB/s ≈ 1.05 ms < 2 ms compute; run is compute
	// bound plus malloc/barrier overhead.
	if res.Time > 2.5e-3 {
		t.Fatalf("run took %.3g s; overlap failed", res.Time)
	}
}

func TestSameDomainGetBlocksButIsFast(t *testing.T) {
	prof := testProfile()
	var wait, total float64
	_, err := Run(prof, 2, func(c rt.Ctx) {
		g := c.Malloc(1 << 17)
		if c.Rank() == 0 {
			dst := c.LocalBuf(1 << 17)
			t0 := c.Now()
			h := rt.NbGet(c, g, 1, 0, 1<<17, dst, 0) // same node: memcpy
			if !h.Done() {
				t.Error("same-domain get should complete synchronously")
			}
			total = c.Now() - t0
			wait = c.Stats().WaitTime
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, total, float64(1<<20)/1e10, 0.01, "memcpy time")
	near(t, wait, float64(1<<20)/1e10, 0.01, "wait time")
	if s := prof.NetBW; float64(1<<20)/1e10 >= float64(1<<20)/s {
		t.Fatal("test premise broken: memcpy should beat the wire")
	}
}

func TestStatsClassifyDomains(t *testing.T) {
	res, err := Run(testProfile(), 4, func(c rt.Ctx) {
		g := c.Malloc(64)
		if c.Rank() == 0 {
			dst := c.LocalBuf(64)
			rt.Get(c, g, 1, 0, 64, dst, 0) // same node
			rt.Get(c, g, 3, 0, 64, dst, 0) // remote node
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats[0]
	if s.BytesShared != 512 || s.BytesRemote != 512 || s.GetsShared != 1 || s.GetsRemote != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNonZeroCopyStealsOwnerCPU(t *testing.T) {
	prof := testProfile()
	prof.ZeroCopy = false
	prof.HostCopyBW = 250e6
	res, err := Run(prof, 4, func(c rt.Ctx) {
		g := c.Malloc(1 << 17)
		c.Barrier()
		if c.Rank() == 0 {
			dst := c.LocalBuf(1 << 17)
			rt.Get(c, g, 2, 0, 1<<17, dst, 0)
		}
		c.Barrier()
		if c.Rank() == 2 {
			// Victim computes after being robbed; its stats must show the
			// stolen staging time.
			b := c.LocalBuf(100)
			m := rt.Mat{Buf: b, LD: 10, Rows: 10, Cols: 10}
			cb := c.LocalBuf(100)
			c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 10, Rows: 10, Cols: 10})
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, res.Stats[2].StealTime, float64(1<<20)/250e6, 0.01, "stolen time")
	if res.Stats[0].StealTime != 0 {
		t.Fatal("initiator should not be charged steal")
	}
}

func TestZeroCopyNoSteal(t *testing.T) {
	res, err := Run(testProfile(), 4, func(c rt.Ctx) {
		g := c.Malloc(1 << 17)
		c.Barrier()
		if c.Rank() == 0 {
			dst := c.LocalBuf(1 << 17)
			rt.Get(c, g, 2, 0, 1<<17, dst, 0)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range res.Stats {
		if s.StealTime != 0 {
			t.Fatalf("rank %d stolen %g with zero-copy", r, s.StealTime)
		}
	}
}

func TestEagerSendOverlaps(t *testing.T) {
	// 8 KB message (eager): sender computes after Isend; wire time hides
	// behind compute; sender wait ~0.
	prof := testProfile()
	_, err := Run(prof, 4, func(c rt.Ctx) {
		n := 1024 // 8 KB
		buf := c.LocalBuf(n)
		if c.Rank() == 0 {
			h := c.Isend(2, 0, buf, 0, n)
			b := c.LocalBuf(100 * 100)
			cb := c.LocalBuf(100 * 100)
			m := rt.Mat{Buf: b, LD: 100, Rows: 100, Cols: 100}
			c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 100, Rows: 100, Cols: 100}) // 2 ms
			c.Wait(h)
			if w := c.Stats().WaitTime; w > 1e-5 {
				t.Errorf("eager sender waited %.3g s", w)
			}
		}
		if c.Rank() == 2 {
			c.Recv(0, 0, buf, 0, n)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBlocksInWait(t *testing.T) {
	// 1 MB message (rendezvous): transfer cannot start until the sender is
	// in Wait, so the wire time lands in the sender's WaitTime even though
	// the receiver posted early.
	prof := testProfile()
	var senderWait float64
	_, err := Run(prof, 4, func(c rt.Ctx) {
		n := 1 << 17 // 1 MB
		buf := c.LocalBuf(n)
		if c.Rank() == 0 {
			h := c.Isend(2, 0, buf, 0, n)
			b := c.LocalBuf(100 * 100)
			cb := c.LocalBuf(100 * 100)
			m := rt.Mat{Buf: b, LD: 100, Rows: 100, Cols: 100}
			c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 100, Rows: 100, Cols: 100})
			c.Wait(h)
			senderWait = c.Stats().WaitTime
		}
		if c.Rank() == 2 {
			c.Recv(0, 0, buf, 0, n)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := float64(1<<20) / 1e9
	if senderWait < wire*0.9 {
		t.Fatalf("rendezvous sender waited only %.3g s, wire needs %.3g s", senderWait, wire)
	}
}

func TestMessageOrderingNonOvertaking(t *testing.T) {
	// Two same-key eager messages must match receives in order; sizes
	// distinguish them (mismatch panics).
	_, err := Run(testProfile(), 2, func(c rt.Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 5, c.LocalBuf(10), 0, 10)
			c.Send(1, 5, c.LocalBuf(20), 0, 20)
		} else {
			c.Recv(0, 5, c.LocalBuf(10), 0, 10)
			c.Recv(0, 5, c.LocalBuf(20), 0, 20)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	_, err := Run(testProfile(), 2, func(c rt.Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 0, c.LocalBuf(10), 0, 10)
		} else {
			c.Recv(0, 0, c.LocalBuf(99), 0, 99)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "size mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestMallocSegmentsSized(t *testing.T) {
	_, err := Run(testProfile(), 3, func(c rt.Ctx) {
		g := c.Malloc(10 * (c.Rank() + 1))
		for r := 0; r < 3; r++ {
			if g.LenAt(r) != 10*(r+1) {
				t.Errorf("LenAt(%d) = %d", r, g.LenAt(r))
			}
		}
		if c.Local(g).Len() != 10*(c.Rank()+1) {
			t.Error("Local length wrong")
		}
		c.Free(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirectRequiresSameDomain(t *testing.T) {
	_, err := Run(testProfile(), 4, func(c rt.Ctx) {
		g := c.Malloc(4)
		if c.Rank() == 0 {
			if !c.CanDirect(1) || c.CanDirect(2) {
				t.Error("CanDirect wrong for 2-way nodes")
			}
			_ = c.Direct(g, 1)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierCostScalesWithLogP(t *testing.T) {
	prof := testProfile()
	run := func(n int) float64 {
		res, err := Run(prof, n, func(c rt.Ctx) { c.Barrier() })
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	t2, t16 := run(2), run(16)
	near(t, t2, prof.MPILatency, 0.01, "2-proc barrier")
	near(t, t16, 4*prof.MPILatency, 0.01, "16-proc barrier")
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	_, err := Run(testProfile(), 2, func(c rt.Ctx) {
		if c.Rank() == 0 {
			c.Recv(1, 0, c.LocalBuf(4), 0, 4) // never sent
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	prof := testProfile()
	run := func() (float64, rt.Stats) {
		res, err := Run(prof, 8, func(c rt.Ctx) {
			g := c.Malloc(4096)
			dst := c.LocalBuf(4096)
			h := rt.NbGet(c, g, (c.Rank()+3)%8, 0, 4096, dst, 0)
			b := c.LocalBuf(50 * 50)
			cb := c.LocalBuf(50 * 50)
			m := rt.Mat{Buf: b, LD: 50, Rows: 50, Cols: 50}
			c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 50, Rows: 50, Cols: 50})
			c.Wait(h)
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		var agg rt.Stats
		for _, s := range res.Stats {
			agg.Add(s)
		}
		return res.Time, agg
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", t1, s1, t2, s2)
	}
}

func TestGetRangeChecked(t *testing.T) {
	_, err := Run(testProfile(), 2, func(c rt.Ctx) {
		g := c.Malloc(4)
		dst := c.LocalBuf(4)
		rt.Get(c, g, 1, 2, 4, dst, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "region ends at 6 of 4") {
		t.Fatalf("err = %v", err)
	}
}

func TestContentionSharedEgress(t *testing.T) {
	// Both procs of node 1 pull 1 MB from node 0 simultaneously: node 0's
	// egress is shared, so it takes ~2x a single transfer.
	prof := testProfile()
	single := func() float64 {
		res, err := Run(prof, 4, func(c rt.Ctx) {
			g := c.Malloc(1 << 17)
			if c.Rank() == 2 {
				rt.Get(c, g, 0, 0, 1<<17, c.LocalBuf(1<<17), 0)
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats[2].WaitTime
	}()
	both := func() float64 {
		res, err := Run(prof, 4, func(c rt.Ctx) {
			g := c.Malloc(1 << 17)
			if c.Rank() >= 2 {
				rt.Get(c, g, 0, 0, 1<<17, c.LocalBuf(1<<17), 0)
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats[2].WaitTime
	}()
	if both < single*1.8 {
		t.Fatalf("contended get %.3g s vs solo %.3g s; expected ~2x", both, single)
	}
}
