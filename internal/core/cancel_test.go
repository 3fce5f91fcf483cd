package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// cancelHarness runs one multiply on a persistent team with the given
// Cancel channel and a releaseSpy on every rank, returning the per-rank
// multiply errors, the gathered C, and scratch accounting.
type cancelHarness struct {
	team       *armci.Team
	g          *grid.Grid
	d          Dims
	aGlob      *mat.Matrix
	bGlob      *mat.Matrix
	da, db, dc *grid.BlockDist
	// adopt binds the operands where they lie (driver.Bind) instead of
	// allocate-and-load; the result is then computed in place.
	adopt bool
}

func newCancelHarness(t *testing.T, nprocs int, d Dims) *cancelHarness {
	t.Helper()
	g, err := grid.Square(nprocs)
	if err != nil {
		t.Fatal(err)
	}
	team, err := armci.NewTeam(rt.Topology{NProcs: nprocs, ProcsPerNode: nprocs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { team.Close() })
	da, db, dc := Dists(g, d, NN)
	return &cancelHarness{
		team:  team,
		g:     g,
		d:     d,
		aGlob: mat.Random(da.Rows, da.Cols, 11),
		bGlob: mat.Random(db.Rows, db.Cols, 22),
		da:    da, db: db, dc: dc,
	}
}

// multiply runs one multiply with opts on the harness team. It returns the
// per-rank errors from Multiply, the gathered result, and the total
// granted/released scratch counts seen through the releaseSpy.
func (h *cancelHarness) multiply(t *testing.T, opts Options) ([]error, *mat.Matrix, int, int) {
	t.Helper()
	n := h.g.Size()
	errs := make([]error, n)
	var granted, released int64
	co := driver.NewCollect(n)
	out := mat.New(h.d.M, h.d.N)
	_, err := h.team.Run(func(c rt.Ctx) {
		spy := &releaseSpy{Ctx: c}
		var ga, gb, gc rt.Global
		if h.adopt {
			ga, gb, gc = driver.Bind(spy, h.da, h.aGlob), driver.Bind(spy, h.db, h.bGlob), driver.Bind(spy, h.dc, out)
		} else {
			ga = driver.AllocBlock(spy, h.da)
			gb = driver.AllocBlock(spy, h.db)
			gc = driver.AllocBlock(spy, h.dc)
			driver.LoadBlock(spy, h.da, ga, h.aGlob)
			driver.LoadBlock(spy, h.db, gb, h.bGlob)
		}
		errs[c.Rank()] = Multiply(spy, h.g, h.d, opts, ga, gb, gc)
		co.Deposit(spy, driver.StoreBlock(spy, h.dc, gc))
		atomic.AddInt64(&granted, int64(spy.granted))
		atomic.AddInt64(&released, int64(spy.released))
	})
	if err != nil {
		t.Fatalf("team run: %v", err)
	}
	cMat, gerr := grid.NewBlockDist(h.g, h.d.M, h.d.N).Gather(co.Blocks)
	if gerr != nil {
		t.Fatal(gerr)
	}
	if h.adopt && !mat.Equal(cMat, out) {
		t.Fatal("the in-place result and the blocks read back from it differ")
	}
	return errs, cMat, int(atomic.LoadInt64(&granted)), int(atomic.LoadInt64(&released))
}

func TestMultiplyCancelledBeforeStart(t *testing.T) {
	h := newCancelHarness(t, 4, Dims{M: 96, N: 96, K: 96})
	done := make(chan struct{})
	close(done)
	errs, _, granted, released := h.multiply(t, Options{Cancel: done})
	for rank, err := range errs {
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("rank %d: err = %v, want ErrCancelled", rank, err)
		}
	}
	if granted != released {
		t.Fatalf("scratch leak on cancellation: %d granted, %d released", granted, released)
	}
	// The team must be fully reusable: the next multiply on the SAME team
	// completes and is correct.
	errs, got, granted, released := h.multiply(t, Options{})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after cancelled run: %v", rank, err)
		}
	}
	if granted != released {
		t.Fatalf("scratch leak on clean run: %d granted, %d released", granted, released)
	}
	want := mat.New(h.d.M, h.d.N)
	if err := mat.Gemm(false, false, 1, h.aGlob, h.bGlob, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("post-cancel multiply wrong: max diff %g", diff)
	}
}

func TestMultiplyCancelledMidFlight(t *testing.T) {
	for _, adopt := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopt=%v", adopt), func(t *testing.T) { cancelMidFlight(t, adopt) })
	}
}

func cancelMidFlight(t *testing.T, adopt bool) {
	// A deadline that expires while tasks remain: MaxTaskK slices the task
	// list fine-grained so the cancel lands between tasks, and the run must
	// return promptly, release all pooled scratch, and leave the team
	// serving correct results — whether the operands were copied into
	// segments or adopted where they lie.
	h := newCancelHarness(t, 4, Dims{M: 128, N: 128, K: 128})
	h.adopt = adopt
	cancel := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	errs, _, granted, released := h.multiply(t, Options{Cancel: cancel, MaxTaskK: 8})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled multiply took %v, want prompt return", elapsed)
	}
	cancelledRanks := 0
	for rank, err := range errs {
		if err == nil {
			continue // this rank finished its (small) task list before the signal
		}
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("rank %d: err = %v, want ErrCancelled or nil", rank, err)
		}
		cancelledRanks++
	}
	if granted != released {
		t.Fatalf("scratch leak on mid-flight cancellation: %d granted, %d released", granted, released)
	}
	// Team reusable and correct afterwards.
	errs, got, _, _ := h.multiply(t, Options{})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after cancelled run: %v", rank, err)
		}
	}
	want := mat.New(h.d.M, h.d.N)
	if err := mat.Gemm(false, false, 1, h.aGlob, h.bGlob, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("post-cancel multiply wrong: max diff %g", diff)
	}
}

func TestMultiplyCancelledResilientExecutor(t *testing.T) {
	// Cancel is honored under the resilience layer too: wrap the engine ctx
	// in it (no injected faults) so the executor plans around rank health,
	// then cancel before the task loop starts.
	h := newCancelHarness(t, 4, Dims{M: 96, N: 96, K: 96})
	done := make(chan struct{})
	close(done)
	n := h.g.Size()
	errs := make([]error, n)
	_, err := h.team.Run(func(c rt.Ctx) {
		rc := faults.Resilient(c, faults.RecoveryConfig{})
		ga := driver.AllocBlock(rc, h.da)
		gb := driver.AllocBlock(rc, h.db)
		gc := driver.AllocBlock(rc, h.dc)
		driver.LoadBlock(rc, h.da, ga, h.aGlob)
		driver.LoadBlock(rc, h.db, gb, h.bGlob)
		errs[c.Rank()] = Multiply(rc, h.g, h.d, Options{Cancel: done}, ga, gb, gc)
		co := driver.StoreBlock(rc, h.dc, gc)
		_ = co
	})
	if err != nil {
		t.Fatalf("team run: %v", err)
	}
	for rank, e := range errs {
		if !errors.Is(e, ErrCancelled) {
			t.Fatalf("rank %d: err = %v, want ErrCancelled", rank, e)
		}
	}
}
