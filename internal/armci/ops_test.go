package armci

import (
	"strings"
	"testing"

	"srumma/internal/mat"
	"srumma/internal/rt"
)

func TestAccAccumulates(t *testing.T) {
	_, err := Run(topo(3, 1, false), func(c rt.Ctx) {
		g := c.Malloc(4)
		c.Barrier()
		src := c.LocalBuf(4)
		c.WriteBuf(src, 0, []float64{1, 1, 1, 1})
		c.(*ctx).Acc(float64(c.Rank()+1), src, 0, 4, g, 0, 0) // +1, +2, +3
		c.Barrier()
		if c.Rank() == 0 {
			got := c.ReadBuf(c.Local(g), 0, 4)
			for i, v := range got {
				if v != 6 {
					t.Errorf("acc[%d] = %v, want 6", i, v)
				}
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchAddLinearizable(t *testing.T) {
	const nprocs, per = 6, 50
	_, err := Run(topo(nprocs, 2, false), func(c rt.Ctx) {
		g := c.Malloc(1)
		c.Barrier()
		seen := make(map[int]bool)
		for i := 0; i < per; i++ {
			v := int(c.(*ctx).FetchAdd(g, 0, 0, 1))
			if seen[v] {
				t.Errorf("rank %d saw duplicate ticket %d", c.Rank(), v)
			}
			seen[v] = true
		}
		c.Barrier()
		if c.Rank() == 0 {
			final := c.ReadBuf(c.Local(g), 0, 1)[0]
			if final != nprocs*per {
				t.Errorf("final counter %v, want %d", final, nprocs*per)
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnpackTransposeThroughCtx(t *testing.T) {
	_, err := Run(topo(1, 1, false), func(c rt.Ctx) {
		// Packed 3x2 block (the transpose source for a 2x3 view).
		src := c.LocalBuf(6)
		c.WriteBuf(src, 0, []float64{1, 2, 3, 4, 5, 6}) // 3 rows x 2 cols
		dst := c.LocalBuf(6)
		c.UnpackTranspose(src, 0, rt.Mat{Buf: dst, LD: 3, Rows: 2, Cols: 3})
		got := c.ReadBuf(dst, 0, 6)
		// dst(i,j) = src(j,i): row0 = 1,3,5; row1 = 2,4,6.
		want := []float64{1, 3, 5, 2, 4, 6}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMiscAccessors(t *testing.T) {
	_, err := Run(topo(2, 2, true), func(c rt.Ctx) {
		if c.Topo().NProcs != 2 || !c.Topo().DomainSpansMachine {
			t.Error("Topo wrong")
		}
		if c.Now() < 0 {
			t.Error("Now negative")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpsRangeErrors(t *testing.T) {
	for name, body := range map[string]func(c rt.Ctx){
		"Acc-overrun": func(c rt.Ctx) {
			g := c.Malloc(4)
			c.(*ctx).Acc(1, c.LocalBuf(8), 0, 8, g, 0, 0)
		},
		"FetchAdd-offset": func(c rt.Ctx) {
			g := c.Malloc(2)
			c.(*ctx).FetchAdd(g, 0, 5, 1)
		},
	} {
		_, err := Run(topo(1, 1, false), body)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestAdoptWindows: adopted segments are the caller's memory. Each rank of
// a 2x2 grid contributes its block of a 5x7 view of a wider matrix; gets,
// direct views and local writes all address the caller's elements through
// the matrix's stride, a rank with no block contributes nothing, and ranks
// that disagree on the stride fail loudly.
func TestAdoptWindows(t *testing.T) {
	const stride = 11
	whole := mat.Random(8, stride, 3)
	m := whole.View(1, 2, 5, 7)
	rowLo, rowN := []int{0, 3}, []int{3, 2}
	colLo, colN := []int{0, 4}, []int{4, 3}
	_, err := Run(topo(4, 2, false), func(c rt.Ctx) {
		me := c.Rank()
		pr, pc := me/2, me%2
		g := c.(rt.Adopter).Adopt(m.View(rowLo[pr], colLo[pc], rowN[pr], colN[pc]).Data, stride)
		if g.LD() != stride {
			t.Errorf("LD = %d", g.LD())
		}
		for r := 0; r < 4; r++ {
			if want := (rowN[r/2]-1)*stride + colN[r%2]; g.LenAt(r) != want {
				t.Errorf("LenAt(%d) = %d, want %d", r, g.LenAt(r), want)
			}
		}
		// A strided get of the diagonal neighbour's whole block.
		nb := 3 - me
		nr, nc := rowN[nb/2], colN[nb%2]
		dst := c.LocalBuf(nr * nc).(*mat.Buf)
		c.Wait(c.NbGetSub(g, nb, 0, stride, nr, nc, dst, 0))
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if got, want := dst.Data[i*nc+j], m.At(rowLo[nb/2]+i, colLo[nb%2]+j); got != want {
					t.Errorf("rank %d: get of rank %d (%d,%d) = %g, want %g", me, nb, i, j, got, want)
				}
			}
		}
		// The node-mate's block, in place.
		mate := me ^ 1
		if got, want := c.Direct(g, mate).(*mat.Buf).Data[0], m.At(rowLo[mate/2], colLo[mate%2]); got != want {
			t.Errorf("rank %d: direct view of rank %d starts at %g, want %g", me, mate, got, want)
		}
		c.Barrier()
		c.Local(g).(*mat.Buf).Data[0] = float64(100 + me)
	})
	if err != nil {
		t.Fatal(err)
	}
	for me := 0; me < 4; me++ {
		if got := m.At(rowLo[me/2], colLo[me%2]); got != float64(100+me) {
			t.Errorf("rank %d's local write did not land in the caller's matrix: %g", me, got)
		}
	}

	if _, err := Run(topo(2, 2, false), func(c rt.Ctx) {
		g := c.(rt.Adopter).Adopt(nil, stride) // no block: an empty window
		if g.LenAt(c.Rank()) != 0 {
			t.Errorf("empty window has length %d", g.LenAt(c.Rank()))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(topo(2, 2, false), func(c rt.Ctx) {
		c.(rt.Adopter).Adopt(whole.Data, stride+c.Rank())
	}); err == nil {
		t.Error("ranks adopting with different strides did not fail")
	}
}
