package core

import (
	"errors"
	"sync"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// releaseSpy wraps an rt.Ctx, counts LocalBuf/ReleaseBuf traffic, and
// forwards capability discovery via Unwrap — exactly how the executor sees
// the engine through the faults middleware.
type releaseSpy struct {
	rt.Ctx
	granted  int
	released int
}

func (s *releaseSpy) Unwrap() rt.Ctx { return s.Ctx }

func (s *releaseSpy) LocalBuf(elems int) rt.Buffer {
	s.granted++
	return s.Ctx.LocalBuf(elems)
}

func (s *releaseSpy) ReleaseBuf(b rt.Buffer) {
	s.released++
	if rel := rt.FindBufferReleaser(s.Ctx); rel != nil {
		rel.ReleaseBuf(b)
	}
}

// TestExecutorReleasesScratch: every communication buffer the executor
// takes must go back to the engine when the multiply completes, so
// repeated multiplies reuse panels instead of re-allocating them.
func TestExecutorReleasesScratch(t *testing.T) {
	g, err := grid.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := Dims{M: 96, N: 96, K: 96}
	opts := Options{}
	da, db, dc := Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, 1)
	bGlob := mat.Random(db.Rows, db.Cols, 2)
	spies := make([]*releaseSpy, g.Size())
	// Two nodes of two ranks: cross-node operands force fetched (buffered)
	// paths alongside direct ones.
	topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 2}
	_, err = armci.Run(topo, func(raw rt.Ctx) {
		c := &releaseSpy{Ctx: raw}
		spies[raw.Rank()] = c
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		granted0 := c.granted // driver helpers may take scratch of their own
		released0 := c.released
		if err := Multiply(c, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		taken := c.granted - granted0
		freed := c.released - released0
		if taken == 0 {
			panic("multiply took no scratch — test exercises nothing")
		}
		if freed != taken {
			t.Errorf("rank %d released %d of %d scratch buffers", raw.Rank(), freed, taken)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, s := range spies {
		if s == nil {
			t.Fatalf("rank %d never ran", rank)
		}
	}
}

// TestCancelAtEveryCutReleasesScratch: Cancel firing after any of a
// rank's first eight tasks — double-buffered, with the look-ahead still in
// flight, or blocking, with nothing outstanding — returns ErrCancelled with
// every scratch buffer back in the pool.
func TestCancelAtEveryCutReleasesScratch(t *testing.T) {
	const p, q = 2, 3
	d := Dims{M: 60, N: 50, K: 70}
	for _, cs := range Cases {
		granted := 0
		for cut := 0; cut < 16; cut++ {
			single, after := cut >= 8, cut%8+1
			stop := make(chan struct{})
			var once sync.Once
			opts := Options{Case: cs, MaxTaskK: 5, Cancel: stop, SingleBuffer: single}
			spies := make([]*releaseSpy, p*q)
			_, _, errs := execRun(t, p, q, 1, d, cs, 1, 0, nil, func(raw rt.Ctx) (rt.Ctx, Options) {
				spy := &releaseSpy{Ctx: raw}
				spies[raw.Rank()] = spy
				return &execSpy{Ctx: spy, after: after, stop: func() { once.Do(func() { close(stop) }) }}, opts
			})
			for rank, err := range errs {
				// Every list here is longer than the cut, so every rank is
				// interrupted: at its own cut or at a neighbour's.
				if !errors.Is(err, ErrCancelled) {
					t.Errorf("%v single=%v after %d, rank %d: err = %v, want ErrCancelled", cs, single, after, rank, err)
				}
				if s := spies[rank]; s.granted != s.released {
					t.Errorf("%v single=%v after %d, rank %d: %d scratch buffers granted, %d released", cs, single, after, rank, s.granted, s.released)
				}
				granted += spies[rank].granted
			}
		}
		if granted == 0 {
			t.Errorf("%v: no rank ever took scratch — the cuts exercise nothing", cs)
		}
	}
}
