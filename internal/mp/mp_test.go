package mp

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/machine"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

func pattern(root, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(root*1000 + i)
	}
	return out
}

func checkBcast(t *testing.T, nprocs, root int, group []int, n int,
	bcast func(c rt.Ctx, buf rt.Buffer)) {
	t.Helper()
	topo := rt.Topology{NProcs: nprocs, ProcsPerNode: 2}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		buf := c.LocalBuf(n)
		if c.Rank() == root {
			c.WriteBuf(buf, 0, pattern(root, n))
		}
		if indexOf(group, c.Rank()) >= 0 {
			bcast(c, buf)
			got := c.ReadBuf(buf, 0, n)
			want := pattern(root, n)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("rank %d elem %d = %v, want %v", c.Rank(), i, got[i], want[i])
					break
				}
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingBcastVariousGroups(t *testing.T) {
	cases := []struct {
		nprocs int
		root   int
		group  []int
	}{
		{2, 0, []int{0, 1}},
		{4, 2, []int{0, 1, 2, 3}},
		{6, 4, []int{1, 3, 4}},       // sparse group, root inside
		{8, 7, []int{7, 0, 3, 5, 6}}, // unsorted group
		{5, 2, []int{2}},             // singleton
		{7, 3, []int{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, tc := range cases {
		checkBcast(t, tc.nprocs, tc.root, tc.group, 33, func(c rt.Ctx, buf rt.Buffer) {
			RingBcast(c, tc.root, tc.group, buf, 0, 33, 99)
		})
	}
}

func TestBcastZeroElements(t *testing.T) {
	checkBcast(t, 4, 0, []int{0, 1, 2, 3}, 0, func(c rt.Ctx, buf rt.Buffer) {
		RingBcast(c, 0, []int{0, 1, 2, 3}, buf, 0, 0, 8)
	})
}

func TestBcastWithOffset(t *testing.T) {
	topo := rt.Topology{NProcs: 3, ProcsPerNode: 1}
	group := []int{0, 1, 2}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		buf := c.LocalBuf(20)
		c.WriteBuf(buf, 0, make([]float64, 20)) // scratch arrives unspecified
		if c.Rank() == 1 {
			c.WriteBuf(buf, 5, pattern(1, 10))
		}
		RingBcast(c, 1, group, buf, 5, 10, 3)
		got := c.ReadBuf(buf, 5, 10)
		for i, w := range pattern(1, 10) {
			if got[i] != w {
				t.Fatalf("rank %d: elem %d = %v want %v", c.Rank(), i, got[i], w)
			}
		}
		// Bytes outside [5,15) must be untouched on non-roots.
		if c.Rank() != 1 {
			edge := c.ReadBuf(buf, 0, 5)
			for i, v := range edge {
				if v != 0 {
					t.Fatalf("rank %d: prefix elem %d = %v", c.Rank(), i, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRingRotation(t *testing.T) {
	// Classic Cannon-style ring shift: everyone sends its value right and
	// receives from the left, simultaneously.
	topo := rt.Topology{NProcs: 5, ProcsPerNode: 1}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		n := 4
		src := c.LocalBuf(n)
		dst := c.LocalBuf(n)
		c.WriteBuf(src, 0, pattern(c.Rank(), n))
		to := (c.Rank() + 1) % 5
		from := (c.Rank() + 4) % 5
		Sendrecv(c, to, 1, src, 0, n, from, 1, dst, 0, n)
		got := c.ReadBuf(dst, 0, n)
		for i, w := range pattern(from, n) {
			if got[i] != w {
				t.Fatalf("rank %d got %v at %d, want %v", c.Rank(), got[i], i, w)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastRankOutsideGroupPanics(t *testing.T) {
	topo := rt.Topology{NProcs: 2, ProcsPerNode: 1}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		buf := c.LocalBuf(4)
		RingBcast(c, 0, []int{0}, buf, 0, 4, 1) // rank 1 not in group
	})
	if err == nil {
		t.Fatal("expected panic for rank outside group")
	}
}

// Sim-engine checks: the collectives must run (and terminate) under the
// virtual-time runtime on every modeled platform, with rendezvous-sized and
// eager-sized payloads, and be deterministic.
func TestCollectivesOnSimEngine(t *testing.T) {
	for name, prof := range machine.All() {
		prof := prof
		t.Run(name, func(t *testing.T) {
			run := func() float64 {
				res, err := simrt.Run(prof, 8, func(c rt.Ctx) {
					group := []int{0, 1, 2, 3, 4, 5, 6, 7}
					small := c.LocalBuf(512)     // eager
					large := c.LocalBuf(1 << 16) // rendezvous (512 KB)
					RingBcast(c, 0, group, small, 0, 512, 1)
					RingBcast(c, 3, group, large, 0, 1<<16, 2)
					Sendrecv(c, (c.Rank()+1)%8, 3, small, 0, 512,
						(c.Rank()+7)%8, 3, small, 0, 512)
					c.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Time
			}
			t1, t2 := run(), run()
			if t1 != t2 {
				t.Fatalf("nondeterministic: %v vs %v", t1, t2)
			}
			if t1 <= 0 {
				t.Fatal("zero virtual time for collective traffic")
			}
		})
	}
}

func TestAllreduceSums(t *testing.T) {
	for _, nprocs := range []int{1, 2, 3, 5, 8} {
		topo := rt.Topology{NProcs: nprocs, ProcsPerNode: 2}
		group := make([]int, nprocs)
		for i := range group {
			group[i] = i
		}
		_, err := armci.Run(topo, func(c rt.Ctx) {
			n := 6
			buf := c.LocalBuf(n)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(c.Rank()*10 + i)
			}
			c.WriteBuf(buf, 0, vals)
			Allreduce(c, group, buf, 0, n, 70)
			got := c.ReadBuf(buf, 0, n)
			for i := range got {
				var want float64
				for r := 0; r < nprocs; r++ {
					want += float64(r*10 + i)
				}
				if got[i] != want {
					t.Errorf("nprocs=%d rank %d elem %d = %v, want %v", nprocs, c.Rank(), i, got[i], want)
				}
			}
		})
		if err != nil {
			t.Fatalf("nprocs=%d: %v", nprocs, err)
		}
	}
}

func TestAllreduceWithOffsetAndZero(t *testing.T) {
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	group := []int{0, 1, 2, 3}
	_, err := armci.Run(topo, func(c rt.Ctx) {
		buf := c.LocalBuf(10)
		c.WriteBuf(buf, 0, make([]float64, 10)) // scratch arrives unspecified
		c.WriteBuf(buf, 3, []float64{1, 2})
		Allreduce(c, group, buf, 3, 2, 71)
		got := c.ReadBuf(buf, 0, 10)
		if got[3] != 4 || got[4] != 8 {
			t.Errorf("rank %d: %v", c.Rank(), got[3:5])
		}
		if got[0] != 0 || got[5] != 0 {
			t.Error("allreduce leaked outside the range")
		}
		Allreduce(c, group, buf, 0, 0, 72) // n=0 no-op
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceOnSimEngine(t *testing.T) {
	prof := machine.LinuxMyrinet()
	group := []int{0, 1, 2, 3, 4, 5}
	res, err := simrt.Run(prof, 6, func(c rt.Ctx) {
		buf := c.LocalBuf(128)
		Allreduce(c, group, buf, 0, 128, 73)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no virtual time for allreduce")
	}
}
