package core

// The one executor pass: the planner's list in the planner's order, so a
// run repeats bit for bit and fetch for fetch, and a resumed one runs what
// its ledger lacks — beta applied once per C region across both attempts.

import (
	"errors"
	"fmt"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// execSpy counts the gemms the executor runs through it and exposes the
// engine beneath. stop, when set, runs once the after-th gemm has; with
// betaOnlyFirst, the first gemm applies its beta to C and nothing else.
type execSpy struct {
	rt.Ctx
	gemms, after  int
	stop          func()
	betaOnlyFirst bool
}

func (s *execSpy) Unwrap() rt.Ctx { return s.Ctx }

func (s *execSpy) Gemm(alpha float64, a, b rt.Mat, beta float64, c rt.Mat) {
	if s.betaOnlyFirst && s.gemms == 0 {
		alpha = 0
	}
	s.Ctx.Gemm(alpha, a, b, beta, c)
	if s.gemms++; s.gemms == s.after && s.stop != nil {
		s.stop()
	}
}

// execRun computes alpha*op(A)op(B) + beta*c0 (c0 nil = zero) on a p x q
// grid of the real engine, ppn ranks per node; each rank runs MultiplyEx on
// the ctx and options wrap gives it. It returns the gathered C, the summed
// stats and each rank's error.
func execRun(t *testing.T, p, q, ppn int, d Dims, cs Case, alpha, beta float64, c0 *mat.Matrix,
	wrap func(raw rt.Ctx) (rt.Ctx, Options)) (*mat.Matrix, rt.Stats, []error) {
	t.Helper()
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d, cs)
	aGlob := mat.Random(da.Rows, da.Cols, 11)
	bGlob := mat.Random(db.Rows, db.Cols, 22)
	co := driver.NewCollect(g.Size())
	errs := make([]error, g.Size())
	topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: ppn}
	stats, err := armci.Run(topo, func(raw rt.Ctx) {
		c, opts := wrap(raw)
		ga := driver.AllocBlock(raw, da)
		gb := driver.AllocBlock(raw, db)
		gc := driver.AllocBlock(raw, dc)
		driver.LoadBlock(raw, da, ga, aGlob)
		driver.LoadBlock(raw, db, gb, bGlob)
		if c0 != nil {
			driver.LoadBlock(raw, dc, gc, c0)
		}
		errs[raw.Rank()] = MultiplyEx(c, g, d, opts, alpha, beta, ga, gb, gc)
		co.Deposit(raw, driver.StoreBlock(raw, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dc.Gather(co.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	return got, sum, errs
}

// referenceEx is alpha*op(A)op(B) + beta*c0 by the naive kernel, on
// execRun's operands.
func referenceEx(t *testing.T, d Dims, cs Case, alpha, beta float64, c0 *mat.Matrix) *mat.Matrix {
	t.Helper()
	want := reference(t, d, cs, 11, 22)
	for i := range want.Data {
		want.Data[i] *= alpha
		if c0 != nil {
			want.Data[i] += beta * c0.Data[i]
		}
	}
	return want
}

func noErrors(t *testing.T, errs []error) {
	t.Helper()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestExecPlainRunRepeats: the executor is one pass over the planner's
// list, so a run repeats itself — same C bit for bit, same fetches — in
// every transpose case, with and without in-node neighbours. The ppn=1
// counts are the EXPERIMENTS.md "One executor" table.
func TestExecPlainRunRepeats(t *testing.T) {
	d := Dims{M: 240, N: 250, K: 260}
	wantGets := map[Case]int64{TN: 130, NT: 96, TT: 166}
	for _, ppn := range []int{1, 2} {
		for _, cs := range Cases {
			opts := Options{Case: cs, MaxTaskK: 32}
			plain := func(raw rt.Ctx) (rt.Ctx, Options) { return raw, opts }
			first, fs, errs := execRun(t, 2, 3, ppn, d, cs, 1, 0, nil, plain)
			noErrors(t, errs)
			again, as, errs := execRun(t, 2, 3, ppn, d, cs, 1, 0, nil, plain)
			noErrors(t, errs)
			if !mat.Equal(again, first) {
				t.Errorf("ppn=%d %v: C differs between two runs", ppn, cs)
			}
			if as.GetsRemote != fs.GetsRemote || as.BytesRemote != fs.BytesRemote || as.GetsShared != fs.GetsShared {
				t.Errorf("ppn=%d %v: the second run moved %d remote gets / %d B / %d shared gets, the first %d / %d / %d",
					ppn, cs, as.GetsRemote, as.BytesRemote, as.GetsShared, fs.GetsRemote, fs.BytesRemote, fs.GetsShared)
			}
			if want, ok := wantGets[cs]; ok && ppn == 1 && fs.GetsRemote != want {
				t.Errorf("%v: %d remote gets, want %d", cs, fs.GetsRemote, want)
			}
		}
	}
}

// TestExecResumesHalfMarkedLedger: a ledger half marked by an interrupted
// attempt, resumed — the remainder runs, and only it, and beta, spent on the
// regions the first attempt reached, is not applied to them again. Each C
// region's tasks still accumulate in list order across the two attempts, so
// the product is the uninterrupted run's bit for bit.
//
// The ledger need not be a prefix of the list. Out of order, every rank's
// first task — the one the planner marks First in its C region — is what is
// missing, while later tasks of that region are done: the resumed task must
// not apply beta again, though it is the region's First.
func TestExecResumesHalfMarkedLedger(t *testing.T) {
	const p, q, ppn = 2, 3, 2
	d := Dims{M: 60, N: 50, K: 70}
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: p * q, ProcsPerNode: ppn}
	for _, cs := range Cases {
		c0 := mat.Random(d.M, d.N, 33)
		whole, _, errs := execRun(t, p, q, ppn, d, cs, 2, -1, c0, func(raw rt.Ctx) (rt.Ctx, Options) {
			return raw, Options{Case: cs, MaxTaskK: 5}
		})
		noErrors(t, errs)
		want := referenceEx(t, d, cs, 2, -1, c0)
		if diff := mat.MaxAbsDiff(whole, want); diff > 1e-10*float64(d.K) {
			t.Fatalf("%v: uninterrupted product off by %g", cs, diff)
		}

		for _, outOfOrder := range []bool{false, true} {
			name := fmt.Sprintf("%v out-of-order=%v", cs, outOfOrder)
			opts := Options{Case: cs, MaxTaskK: 5, Ledger: NewJobLedger(p * q)}
			partial, _, errs := execRun(t, p, q, ppn, d, cs, 2, -1, c0, func(raw rt.Ctx) (rt.Ctx, Options) {
				if outOfOrder {
					return &execSpy{Ctx: raw, betaOnlyFirst: true}, opts
				}
				// Every rank cancels itself after half its tasks.
				stop := make(chan struct{})
				o := opts
				o.Cancel = stop
				half := len(Plan(topo, raw.Rank(), g, d, opts)) / 2
				return &execSpy{Ctx: raw, after: half, stop: func() { close(stop) }}, o
			})
			for rank, err := range errs {
				if outOfOrder && err != nil || !outOfOrder && !errors.Is(err, ErrCancelled) {
					t.Fatalf("%s rank %d: first attempt returned %v", name, rank, err)
				}
			}
			if outOfOrder {
				for r := 0; r < p*q; r++ {
					opts.Ledger.Rank(r, len(Plan(topo, r, g, d, opts))).Unmark(0)
				}
			}
			done := opts.Ledger.Completed()
			if done == 0 || done == opts.Ledger.Total() {
				t.Fatalf("%s: first attempt left the ledger at %d/%d, want it partly marked", name, done, opts.Ledger.Total())
			}

			spies := make([]*execSpy, p*q)
			got, _, errs := execRun(t, p, q, ppn, d, cs, 2, -1, partial, func(raw rt.Ctx) (rt.Ctx, Options) {
				spies[raw.Rank()] = &execSpy{Ctx: raw}
				return spies[raw.Rank()], opts
			})
			noErrors(t, errs)
			if outOfOrder {
				if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
					t.Errorf("%s: resumed product off by %g — beta applied other than once per region", name, diff)
				}
			} else if !mat.Equal(got, whole) {
				t.Errorf("%s: resumed product differs from the uninterrupted run (max diff %g)", name, mat.MaxAbsDiff(got, whole))
			}
			redone := 0
			for _, s := range spies {
				redone += s.gemms
			}
			if lacked := opts.Ledger.Total() - done; redone != lacked {
				t.Errorf("%s: the resumed attempt ran %d tasks, the ledger lacked %d", name, redone, lacked)
			}
			if opts.Ledger.Completed() != opts.Ledger.Total() {
				t.Errorf("%s: ledger holds %d of %d tasks after the resume", name, opts.Ledger.Completed(), opts.Ledger.Total())
			}
		}
	}
}
