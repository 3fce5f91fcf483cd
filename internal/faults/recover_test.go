package faults_test

// Seeded recovery determinism: the gemm fault stream (silent compute
// corruption, mid-compute crashes) is a pure function of (seed, rank,
// gemm-op index), so the same seed must reproduce the identical detection
// counts and the identical recovered product, run after run. This is what
// makes a chaos failure reported by CI replayable at a desk.

import (
	"errors"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// abftRun executes one SRUMMA multiply with ABFT verification on the real
// engine under a gemm fault plan, returning the gathered C and summed stats.
func abftRun(t *testing.T, cfg faults.Config) (*mat.Matrix, rt.Stats, error) {
	t.Helper()
	g, err := grid.Square(chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: chaosN, N: chaosN, K: chaosN}
	opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: chaosTaskK, ABFT: true}
	da, db, dc := core.Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, 11)
	bGlob := mat.Random(db.Rows, db.Cols, 22)
	co := driver.NewCollect(chaosProcs)
	topo := rt.Topology{NProcs: chaosProcs, ProcsPerNode: chaosPPN}
	plan, err := faults.NewPlan(cfg, chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := armci.RunWithTimeout(topo, chaosTimout, func(c rt.Ctx) {
		cc := faults.Inject(c, plan, nil)
		ga := driver.AllocBlock(cc, da)
		gb := driver.AllocBlock(cc, db)
		gc := driver.AllocBlock(cc, dc)
		driver.LoadBlock(cc, da, ga, aGlob)
		driver.LoadBlock(cc, db, gb, bGlob)
		if err := core.Multiply(cc, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(cc, driver.StoreBlock(cc, dc, gc))
	})
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	if err != nil {
		return nil, sum, err
	}
	got, gerr := dc.Gather(co.Blocks)
	if gerr != nil {
		t.Fatal(gerr)
	}
	return got, sum, nil
}

// TestBadBlockABFTRecoversDeterministically plants silent compute
// corruption at several seeds: every run must detect at least one corrupted
// block, recompute every detection, land on the correct product, and replay
// BIT-IDENTICALLY (same detections, same C) when repeated with its seed.
func TestBadBlockABFTRecoversDeterministically(t *testing.T) {
	want := chaosReference(t)
	for _, seed := range []uint64{1, 2, 3} {
		cfg := faults.Config{Seed: seed, BadBlockRate: 0.2}
		got1, sum1, err := abftRun(t, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sum1.ABFTDetected == 0 {
			t.Fatalf("seed %d: no corrupted blocks detected at rate 0.2", seed)
		}
		if sum1.ABFTRecomputed != sum1.ABFTDetected {
			t.Fatalf("seed %d: detected %d but recomputed %d", seed, sum1.ABFTDetected, sum1.ABFTRecomputed)
		}
		if diff := mat.MaxAbsDiff(got1, want); diff > 1e-10*float64(chaosN) {
			t.Fatalf("seed %d: recovered C wrong: max diff %g", seed, diff)
		}

		got2, sum2, err := abftRun(t, cfg)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if sum2.ABFTDetected != sum1.ABFTDetected {
			t.Fatalf("seed %d: replay detected %d, first run %d", seed, sum2.ABFTDetected, sum1.ABFTDetected)
		}
		for i := range got1.Data {
			if got1.Data[i] != got2.Data[i] {
				t.Fatalf("seed %d: replay C[%d] = %v != %v (must be bit-identical)", seed, i, got2.Data[i], got1.Data[i])
			}
		}
	}
}

// TestBadBlockWithoutABFTIsSilent pins the threat model: without
// verification the corruption lands undetected and the product is wrong —
// the reason the ABFT option exists.
func TestBadBlockWithoutABFTIsSilent(t *testing.T) {
	g, err := grid.Square(chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: chaosN, N: chaosN, K: chaosN}
	opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: chaosTaskK}
	da, db, dc := core.Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, 11)
	bGlob := mat.Random(db.Rows, db.Cols, 22)
	co := driver.NewCollect(chaosProcs)
	plan, err := faults.NewPlan(faults.Config{Seed: 1, BadBlockRate: 0.5}, chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = armci.RunWithTimeout(rt.Topology{NProcs: chaosProcs, ProcsPerNode: chaosPPN}, chaosTimout, func(c rt.Ctx) {
		cc := faults.Inject(c, plan, nil)
		ga := driver.AllocBlock(cc, da)
		gb := driver.AllocBlock(cc, db)
		gc := driver.AllocBlock(cc, dc)
		driver.LoadBlock(cc, da, ga, aGlob)
		driver.LoadBlock(cc, db, gb, bGlob)
		if err := core.Multiply(cc, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(cc, driver.StoreBlock(cc, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dc.Gather(co.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, chaosReference(t)); diff <= 1e-10*float64(chaosN) {
		t.Fatal("half the blocks corrupted yet C is correct: the injector is not corrupting compute")
	}
}

// TestComputeCrashPanicsWithContext pins the mid-compute crash fault: the
// planted rank dies inside the task loop, the error names it, and
// errors.As reaches the CrashError through armci's RankPanicError wrapper.
func TestComputeCrashPanicsWithContext(t *testing.T) {
	g, err := grid.Square(chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: chaosN, N: chaosN, K: chaosN}
	opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: chaosTaskK}
	da, db, dc := core.Dists(g, d, opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, 11)
	bGlob := mat.Random(db.Rows, db.Cols, 22)
	plan, err := faults.NewPlan(faults.Config{Seed: 5, ComputeCrash: true, ComputeCrashOpSpan: 4}, chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, _ := plan.ComputeCrashPoint()
	start := time.Now()
	_, err = armci.RunWithTimeout(rt.Topology{NProcs: chaosProcs, ProcsPerNode: chaosPPN}, chaosTimout, func(c rt.Ctx) {
		cc := faults.Inject(c, plan, nil)
		ga := driver.AllocBlock(cc, da)
		gb := driver.AllocBlock(cc, db)
		gc := driver.AllocBlock(cc, dc)
		driver.LoadBlock(cc, da, ga, aGlob)
		driver.LoadBlock(cc, db, gb, bGlob)
		if err := core.Multiply(cc, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
	})
	if err == nil {
		t.Fatal("planted compute crash produced no error")
	}
	var ce faults.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error does not unwrap to CrashError: %v", err)
	}
	if ce.Rank != wantRank || !ce.Compute {
		t.Fatalf("CrashError = %+v, want compute crash on rank %d", ce, wantRank)
	}
	if time.Since(start) > chaosTimout {
		t.Fatal("crash recovery exceeded the watchdog window")
	}
}

// The resume-vs-restart gate's job: small enough for -race, with enough
// tasks per rank (192/8 = 24) that a crash inside a rank's first six gemms
// leaves work both done and undone.
const (
	resumeProcs = 4
	resumeN     = 192
	resumeSpan  = 6
)

// resumeAttempt runs one SRUMMA attempt in place in out (driver.Bind adopts
// it), under the shared injector unless sh is nil, and returns the attempt's
// summed stats. What a failed attempt completed is therefore still in out
// for the retry, next to the ledger marks in opts that say what it is.
func resumeAttempt(t *testing.T, opts core.Options, sh *faults.Shared, a, b, out *mat.Matrix) (rt.Stats, error) {
	t.Helper()
	g, err := grid.Square(resumeProcs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: resumeN, N: resumeN, K: resumeN}
	da, db, dc := core.Dists(g, d, opts.Case)
	errs := make([]error, resumeProcs)
	topo := rt.Topology{NProcs: resumeProcs, ProcsPerNode: chaosPPN}
	stats, err := armci.RunWithTimeout(topo, chaosTimout, func(c rt.Ctx) {
		if sh != nil {
			c = sh.Wrap(c)
		}
		ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, b), driver.Bind(c, dc, out)
		errs[c.Rank()] = core.MultiplyEx(c, g, d, opts, 1, 0, ga, gb, gc)
	})
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	return sum, errors.Join(append(errs, err)...)
}

// TestComputeCrashResumeVsRestart is the crash-recovery gate: one planted
// mid-compute crash, recovered once by retrying over the partial result
// with the job's ledger and once by forgetting the ledger. Both retries
// must land bit-identically on the fault-free product; the resumed one must
// have executed strictly less gemm work than a whole run, the restarted one
// exactly a whole run's (Stats.Flops counts every gemm the engine executes).
func TestComputeCrashResumeVsRestart(t *testing.T) {
	a := mat.Random(resumeN, resumeN, 101)
	b := mat.Random(resumeN, resumeN, 102)
	opts := core.Options{Case: core.NN, Flavor: core.FlavorDirect, MaxTaskK: chaosTaskK}
	clean, want := mat.New(resumeN, resumeN), mat.New(resumeN, resumeN)
	whole, err := resumeAttempt(t, opts, nil, a, b, clean)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(clean, want); diff > 1e-10*resumeN {
		t.Fatalf("fault-free run diverges from the serial kernel: max diff %g", diff)
	}

	for _, resume := range []bool{true, false} {
		plan, err := faults.NewPlan(faults.Config{Seed: 1, ComputeCrash: true, ComputeCrashOpSpan: resumeSpan}, resumeProcs)
		if err != nil {
			t.Fatal(err)
		}
		wantRank, _ := plan.ComputeCrashPoint()
		sh := faults.NewShared(plan) // one latch across both attempts: the crash fires once
		jl := core.NewJobLedger(resumeProcs)
		opts.Ledger = jl
		got := mat.New(resumeN, resumeN)

		_, err = resumeAttempt(t, opts, sh, a, b, got)
		var ce faults.CrashError
		if !errors.As(err, &ce) || ce.Rank != wantRank || !ce.Compute {
			t.Fatalf("resume=%v: first attempt returned %v, want the compute crash planted on rank %d", resume, err, wantRank)
		}
		if done, total := jl.Completed(), jl.Total(); done <= 0 || done >= total {
			t.Fatalf("resume=%v: ledger holds %d of %d tasks after the crash, want some but not all", resume, done, total)
		}
		if !resume {
			for r := 0; r < resumeProcs; r++ {
				jl.Reset(r)
			}
		}

		retry, err := resumeAttempt(t, opts, sh, a, b, got)
		if err != nil {
			t.Fatalf("resume=%v: retry failed: %v", resume, err)
		}
		for i := range clean.Data {
			if got.Data[i] != clean.Data[i] {
				t.Fatalf("resume=%v: C[%d] = %v != fault-free %v (must be bit-identical)", resume, i, got.Data[i], clean.Data[i])
			}
		}
		if resume && retry.Flops >= whole.Flops {
			t.Errorf("resumed retry executed %g flops, not fewer than a whole run's %g: the ledger preserved nothing", retry.Flops, whole.Flops)
		}
		if !resume && retry.Flops != whole.Flops {
			t.Errorf("restarted retry executed %g flops, want a whole run's %g", retry.Flops, whole.Flops)
		}
	}
}
