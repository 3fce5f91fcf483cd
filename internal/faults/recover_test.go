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

// timingBlind is the recovery layer with the straggler threshold out of
// reach. A replay that must be bit-identical cannot also plan by the wall
// clock: a rank descheduled for a millisecond (under -race, routinely) reads
// as slow at the default threshold, the executor plans its tasks behind the
// others, and NN — one C region per rank, so every reordering reorders its
// sum — accumulates in a different order.
var timingBlind = faults.RecoveryConfig{StragglerLatency: time.Hour}

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
		cc := faults.Resilient(faults.Inject(c, plan, nil), timingBlind)
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
		cc := faults.Resilient(faults.Inject(c, plan, nil), timingBlind)
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
