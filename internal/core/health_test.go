package core

// The one executor under rank health (rt.Health) WITHOUT any transfer
// faults: a verdict is an input to planning — tasks waiting on a slow owner
// run after the others, a degraded rank fetches blocking — and a verdict
// that moves under a pending task makes the loop drain and plan again from
// what is done. Whatever the report, C is the plain run's within the
// accumulation-order bound; under a silent report it is the plain run, bit
// for bit and fetch for fetch.

import (
	"errors"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// fakeHealth satisfies rt.Health with a fixed report.
type fakeHealth struct {
	rt.Ctx
	slow     map[int]bool
	degraded bool
}

func (f *fakeHealth) IsSlow(rank int) bool { return f.slow[rank] }
func (f *fakeHealth) Degraded() bool       { return f.degraded }

// verdict is one report of a scriptedHealth, holding from its after-th
// gemm on.
type verdict struct {
	after    int
	slow     map[int]bool
	degraded bool
}

// scriptedHealth reports script's verdicts in turn, moving on by how many
// tasks the executor has run — deterministic, and independent of when and
// how often the executor asks. It counts what the executor does on the way
// (one-sided gets issued, gemms run) and exposes the engine beneath, as the
// real resilience layer does. onMove, when set, runs as each later verdict
// takes over.
type scriptedHealth struct {
	rt.Ctx
	script []verdict
	onMove func()
	gets   int
	gemms  int
}

func (s *scriptedHealth) Unwrap() rt.Ctx       { return s.Ctx }
func (s *scriptedHealth) IsSlow(rank int) bool { return s.script[0].slow[rank] }
func (s *scriptedHealth) Degraded() bool       { return s.script[0].degraded }

func (s *scriptedHealth) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	s.gets++
	return s.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
}

func (s *scriptedHealth) Gemm(alpha float64, a, b rt.Mat, beta float64, c rt.Mat) {
	s.Ctx.Gemm(alpha, a, b, beta, c)
	s.gemms++
	for len(s.script) > 1 && s.script[1].after <= s.gemms {
		s.script = s.script[1:]
		if s.onMove != nil {
			s.onMove()
		}
	}
}

// healthRun computes alpha*op(A)op(B) + beta*c0 (c0 nil = zero) on a p x q
// grid of the real engine, ppn ranks per node; each rank runs MultiplyEx on
// the ctx and options wrap gives it. It returns the gathered C, the summed
// stats and each rank's error.
func healthRun(t *testing.T, p, q, ppn int, d Dims, cs Case, alpha, beta float64, c0 *mat.Matrix,
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
// healthRun's operands.
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

// runDynamic is a plain multiply with every rank's ctx wrapped in a
// fakeHealth.
func runDynamic(t *testing.T, p, q, ppn int, d Dims, opts Options, slow map[int]bool, degraded bool) *mat.Matrix {
	t.Helper()
	got, _, errs := healthRun(t, p, q, ppn, d, opts.Case, 1, 0, nil, func(raw rt.Ctx) (rt.Ctx, Options) {
		return &fakeHealth{Ctx: raw, slow: slow, degraded: degraded}, opts
	})
	noErrors(t, errs)
	return got
}

func checkDynamic(t *testing.T, p, q, ppn int, d Dims, opts Options, slow map[int]bool, degraded bool) {
	t.Helper()
	got := runDynamic(t, p, q, ppn, d, opts, slow, degraded)
	want := reference(t, d, opts.Case, 11, 22)
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
		t.Errorf("grid %dx%d ppn=%d %v slow=%v degraded=%v: max diff %g",
			p, q, ppn, opts.Case, slow, degraded, diff)
	}
}

func TestResilientExecAllCases(t *testing.T) {
	for _, cs := range Cases {
		t.Run(cs.String(), func(t *testing.T) {
			checkDynamic(t, 2, 2, 2, Dims{M: 24, N: 24, K: 24}, Options{Case: cs}, nil, false)
			// Uneven rectangular grid and dims: the k-piece intersection
			// machinery under a (silent) health report.
			checkDynamic(t, 2, 3, 2, Dims{M: 20, N: 25, K: 30}, Options{Case: cs}, nil, false)
		})
	}
}

func TestResilientExecSlowOwners(t *testing.T) {
	// Flagging owners as slow defers their tasks: the list runs out of
	// order, so this exercises the per-region beta tracking.
	for _, cs := range Cases {
		checkDynamic(t, 3, 2, 2, Dims{M: 21, N: 20, K: 19}, Options{Case: cs, MaxTaskK: 5},
			map[int]bool{1: true, 4: true}, false)
	}
	// Every owner slow: nothing to run ahead of, the order stays the list's.
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	checkDynamic(t, 2, 2, 2, Dims{M: 16, N: 16, K: 16}, Options{}, all, false)
}

func TestResilientExecDegraded(t *testing.T) {
	// Degraded mode: no prefetch, blocking single-slot transfers.
	for _, cs := range Cases {
		checkDynamic(t, 2, 2, 2, Dims{M: 18, N: 17, K: 16}, Options{Case: cs}, nil, true)
	}
	checkDynamic(t, 2, 3, 2, Dims{M: 20, N: 25, K: 30}, Options{Case: TT, MaxTaskK: 7}, nil, true)
}

func TestResilientExecSingleBuffer(t *testing.T) {
	// The caller's blocking mode and the health-driven one must agree.
	checkDynamic(t, 2, 2, 2, Dims{M: 16, N: 16, K: 16}, Options{SingleBuffer: true}, nil, false)
	checkDynamic(t, 2, 2, 2, Dims{M: 16, N: 16, K: 16}, Options{SingleBuffer: true}, map[int]bool{2: true}, true)
}

func TestResilientExecBeta(t *testing.T) {
	// MultiplyEx with beta != 0 out of list order: every C region must
	// apply the caller's beta exactly once, whatever order tasks ran in.
	d := Dims{M: 16, N: 16, K: 16}
	c0 := mat.Random(d.M, d.N, 33)
	got, _, errs := healthRun(t, 2, 2, 2, d, NN, 2, -1, c0, func(raw rt.Ctx) (rt.Ctx, Options) {
		return &fakeHealth{Ctx: raw, slow: map[int]bool{1: true}}, Options{MaxTaskK: 4}
	})
	noErrors(t, errs)
	if diff := mat.MaxAbsDiff(got, referenceEx(t, d, NN, 2, -1, c0)); diff > 1e-10*float64(d.K) {
		t.Errorf("alpha=2 beta=-1 out of list order: max diff %g", diff)
	}
}

// TestExecHealthSilentIsThePlainRun: a health reporter with nothing to
// report costs nothing and changes nothing — same C bit for bit, same
// fetches — in every transpose case, with and without in-node neighbours.
// The ppn=1 counts are the EXPERIMENTS.md "One executor" table.
func TestExecHealthSilentIsThePlainRun(t *testing.T) {
	d := Dims{M: 240, N: 250, K: 260}
	wantGets := map[Case]int64{TN: 130, NT: 96, TT: 166}
	for _, ppn := range []int{1, 2} {
		for _, cs := range Cases {
			opts := Options{Case: cs, MaxTaskK: 32}
			plain, ps, errs := healthRun(t, 2, 3, ppn, d, cs, 1, 0, nil, func(raw rt.Ctx) (rt.Ctx, Options) {
				return raw, opts
			})
			noErrors(t, errs)
			silent, ss, errs := healthRun(t, 2, 3, ppn, d, cs, 1, 0, nil, func(raw rt.Ctx) (rt.Ctx, Options) {
				return &scriptedHealth{Ctx: raw, script: []verdict{{}}}, opts
			})
			noErrors(t, errs)
			if !mat.Equal(silent, plain) {
				t.Errorf("ppn=%d %v: C under silent health differs from the plain run", ppn, cs)
			}
			if ss.GetsRemote != ps.GetsRemote || ss.BytesRemote != ps.BytesRemote || ss.GetsShared != ps.GetsShared {
				t.Errorf("ppn=%d %v: silent health moved %d remote gets / %d B / %d shared gets, plain run %d / %d / %d",
					ppn, cs, ss.GetsRemote, ss.BytesRemote, ss.GetsShared, ps.GetsRemote, ps.BytesRemote, ps.GetsShared)
			}
			if ss.StragglerSteals != 0 {
				t.Errorf("ppn=%d %v: %d steals under a silent report", ppn, cs, ss.StragglerSteals)
			}
			if want, ok := wantGets[cs]; ok && ppn == 1 && ss.GetsRemote != want {
				t.Errorf("%v: %d remote gets under health, want %d", cs, ss.GetsRemote, want)
			}
		}
	}
}

// fetchedOperands is how many operands of a task list are not direct: the
// fetches of an executor with no buffer reuse at all.
func fetchedOperands(list []Task) (fetched int) {
	for i := range list {
		if !list[i].ADirect {
			fetched++
		}
		if !list[i].BDirect {
			fetched++
		}
	}
	return fetched
}

// slowAhead is a slow set that defers something: the owner of the first
// operand fetched at or after task from.
func slowAhead(list []Task, from int) map[int]bool {
	for _, t := range list[min(from, len(list)):] {
		if !t.ADirect {
			return map[int]bool{t.AOwner: true}
		}
		if !t.BDirect {
			return map[int]bool{t.BOwner: true}
		}
	}
	return nil
}

// TestExecHealthReplans drives the re-plan path with a scripted verdict:
// silent at first, then two owners slow, then degraded with one recovered,
// then silent again — each change lands mid-list, so the loop drains, plans
// again from its ledger and carries on.
func TestExecHealthReplans(t *testing.T) {
	const p, q, ppn = 2, 3, 1
	d := Dims{M: 60, N: 50, K: 70}
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: p * q, ProcsPerNode: ppn}
	for _, cs := range Cases {
		opts := Options{Case: cs, MaxTaskK: 5, Ledger: NewJobLedger(p * q)}
		c0 := mat.Random(d.M, d.N, 33)
		spies := make([]*scriptedHealth, p*q)
		got, sum, errs := healthRun(t, p, q, ppn, d, cs, 2, -1, c0, func(raw rt.Ctx) (rt.Ctx, Options) {
			list := Plan(topo, raw.Rank(), g, d, opts)
			s := &scriptedHealth{Ctx: raw, script: []verdict{
				{},
				{after: 3, slow: slowAhead(list, 5)},
				{after: 7, slow: slowAhead(list, 10), degraded: true},
				{after: 11},
			}}
			spies[raw.Rank()] = s
			return s, opts
		})
		noErrors(t, errs)
		if diff := mat.MaxAbsDiff(got, referenceEx(t, d, cs, 2, -1, c0)); diff > 1e-10*float64(d.K) {
			t.Errorf("%v: max diff %g — beta applied other than once per region, or a task run other than once", cs, diff)
		}
		if sum.StragglerSteals == 0 {
			t.Errorf("%v: no task was deferred behind a slow owner", cs)
		}
		if opts.Ledger.Completed() != opts.Ledger.Total() {
			t.Errorf("%v: ledger holds %d of %d tasks", cs, opts.Ledger.Completed(), opts.Ledger.Total())
		}
		for rank, s := range spies {
			list := Plan(topo, rank, g, d, opts)
			fetched := fetchedOperands(list)
			if len(s.script) != 1 {
				t.Errorf("%v rank %d: the script ended at verdict %+v, %d tasks were too few to reach the last", cs, rank, s.script[0], len(list))
			}
			if s.gemms != len(list) {
				t.Errorf("%v rank %d: %d gemms for %d tasks", cs, rank, s.gemms, len(list))
			}
			if s.gets > fetched {
				t.Errorf("%v rank %d: %d fetches, more than one per fetched operand (%d)", cs, rank, s.gets, fetched)
			}
		}
	}
}

// TestExecHealthResumesUnderSlowVerdict: a ledger half marked by an
// interrupted attempt, resumed on a rank whose health says two owners are
// slow — the remainder runs out of list order, and beta, spent on the
// regions the first attempt reached, is not applied to them again.
func TestExecHealthResumesUnderSlowVerdict(t *testing.T) {
	const p, q, ppn = 2, 3, 2
	d := Dims{M: 60, N: 50, K: 70}
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: p * q, ProcsPerNode: ppn}
	for _, cs := range Cases {
		opts := Options{Case: cs, MaxTaskK: 5, Ledger: NewJobLedger(p * q)}
		c0 := mat.Random(d.M, d.N, 33)
		// First attempt: every rank cancels itself after half its tasks.
		partial, _, errs := healthRun(t, p, q, ppn, d, cs, 2, -1, c0, func(raw rt.Ctx) (rt.Ctx, Options) {
			tasks := len(Plan(topo, raw.Rank(), g, d, opts))
			stop := make(chan struct{})
			s := &scriptedHealth{Ctx: raw, script: []verdict{{}, {after: tasks / 2}}, onMove: func() { close(stop) }}
			o := opts
			o.Cancel = stop
			return s, o
		})
		for rank, err := range errs {
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("%v rank %d: first attempt returned %v, want ErrCancelled", cs, rank, err)
			}
		}
		done := opts.Ledger.Completed()
		if done == 0 || done == opts.Ledger.Total() {
			t.Fatalf("%v: first attempt left the ledger at %d/%d, want it half marked", cs, done, opts.Ledger.Total())
		}
		spies := make([]*scriptedHealth, p*q)
		got, sum, errs := healthRun(t, p, q, ppn, d, cs, 2, -1, partial, func(raw rt.Ctx) (rt.Ctx, Options) {
			list := Plan(topo, raw.Rank(), g, d, opts)
			s := &scriptedHealth{Ctx: raw, script: []verdict{{slow: slowAhead(list, len(list)/2)}}}
			spies[raw.Rank()] = s
			return s, opts
		})
		noErrors(t, errs)
		if diff := mat.MaxAbsDiff(got, referenceEx(t, d, cs, 2, -1, c0)); diff > 1e-10*float64(d.K) {
			t.Errorf("%v: resumed product off by %g", cs, diff)
		}
		redone := 0
		for _, s := range spies {
			redone += s.gemms
		}
		if want := opts.Ledger.Total() - done; redone != want {
			t.Errorf("%v: the resumed attempt ran %d tasks, the ledger lacked %d", cs, redone, want)
		}
		if sum.StragglerSteals == 0 {
			t.Errorf("%v: the resumed attempt deferred nothing", cs)
		}
	}
}
