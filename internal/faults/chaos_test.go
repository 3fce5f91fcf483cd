package faults_test

// Chaos suite: end-to-end fault injection on the REAL engine running the
// full SRUMMA multiply, plus the replay-determinism contracts on both
// engines. The acceptance bar for every fault class at every seed:
//
//   - the run either recovers to a C matching a serial dgemm, or
//   - fails loudly with an error naming the faulty rank (and op), and
//   - never hangs: every run executes under the armci watchdog.

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/mat"
	"srumma/internal/rt"
	"srumma/internal/simnet"
	"srumma/internal/simrt"
)

// Chaos problem: 6 ranks as 3 nodes x 2 ranks, a 3x2 grid, fine task
// granularity so every rank issues a healthy number of one-sided gets.
const (
	chaosN      = 60
	chaosProcs  = 6
	chaosPPN    = 2
	chaosTaskK  = 8
	chaosTimout = 30 * time.Second
)

// chaosRun executes one SRUMMA multiply on the real engine under the fault
// plan (nil plan = fault-free) and returns the gathered C with summed
// stats. rec may be nil.
func chaosRun(t *testing.T, cfg *faults.Config, recov faults.RecoveryConfig, rec *faults.Recorder) (*mat.Matrix, rt.Stats, error) {
	t.Helper()
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
	topo := rt.Topology{NProcs: chaosProcs, ProcsPerNode: chaosPPN}

	body := func(c rt.Ctx) {
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		if err := core.Multiply(c, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(c, driver.StoreBlock(c, dc, gc))
	}

	var stats []*rt.Stats
	if cfg != nil {
		plan, perr := faults.NewPlan(*cfg, chaosProcs)
		if perr != nil {
			t.Fatal(perr)
		}
		stats, err = armci.RunWithTimeout(topo, chaosTimout, func(c rt.Ctx) {
			body(faults.Resilient(faults.Inject(c, plan, rec), recov))
		})
	} else {
		stats, err = armci.Run(topo, body)
	}
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	if err != nil {
		return nil, sum, err
	}
	got, err := dc.Gather(co.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	return got, sum, nil
}

func chaosReference(t *testing.T) *mat.Matrix {
	t.Helper()
	g, err := grid.Square(chaosProcs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: chaosN, N: chaosN, K: chaosN}
	da, db, _ := core.Dists(g, d, core.NN)
	a := mat.Random(da.Rows, da.Cols, 11)
	b := mat.Random(db.Rows, db.Cols, 22)
	want := mat.New(chaosN, chaosN)
	if err := mat.GemmNaive(false, false, 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	return want
}

// classConfig is the one table of chaos classes: the fault plan and the
// recovery settings each runs under. Rates are deliberately aggressive — a
// run with zero injected faults proves nothing. straggle-tight puts two
// stragglers well over a tight latency threshold so the executor's re-plan
// around them shows; crash-early lands the death within the first ops.
func classConfig(t *testing.T, class string, seed uint64) (faults.Config, faults.RecoveryConfig) {
	t.Helper()
	cfg := faults.Config{Seed: seed}
	var recov faults.RecoveryConfig
	switch class {
	case "drop":
		cfg.DropRate = 0.15
	case "delay":
		cfg.DelayRate = 0.2
		cfg.DelayUnit = 500 * time.Microsecond
	case "corrupt":
		cfg.CorruptRate = 0.15
	case "straggle":
		cfg.Stragglers = 2
		cfg.StragglerDelay = 2 * time.Millisecond
	case "straggle-tight":
		cfg.Stragglers = 2
		cfg.StragglerDelay = 4 * time.Millisecond
		recov.StragglerLatency = 500 * time.Microsecond
	case "crash":
		cfg.Crash = true
		cfg.CrashOpSpan = 4
	case "crash-early":
		cfg.Crash = true
		cfg.CrashOpSpan = 2
	default:
		t.Fatalf("unknown class %q", class)
	}
	return cfg, recov
}

// TestChaosRecoverableClasses: every recoverable fault class, three seeds
// each, must recover to the serial-dgemm result with faults actually
// injected and the recovery path the class exists to exercise actually
// taken — never a hang (watchdog-bounded), never a silently wrong C, never
// an idle counter.
func TestChaosRecoverableClasses(t *testing.T) {
	want := chaosReference(t)
	tol := 1e-10 * float64(chaosN)
	refetches := func(s rt.Stats) int64 { return s.FaultRefetches }
	steals := func(s rt.Stats) int64 { return s.StragglerSteals }
	for _, tc := range []struct {
		class   string
		counter string // the recovery counter the class must move ("" = none)
		read    func(rt.Stats) int64
	}{
		// A dropped transfer "completes" having moved nothing: it is the
		// checksum that catches it, so drop moves the refetch counter too
		// (FaultRetries counts timeouts; TestChaosGracefulDegradation's).
		{"drop", "FaultRefetches", refetches},
		{"delay", "", nil},
		{"corrupt", "FaultRefetches", refetches},
		{"straggle", "", nil},
		{"straggle-tight", "StragglerSteals", steals},
	} {
		t.Run(tc.class, func(t *testing.T) {
			var injected, moved int64
			for _, seed := range []uint64{1, 2, 3} {
				cfg, recov := classConfig(t, tc.class, seed)
				got, sum, err := chaosRun(t, &cfg, recov, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if diff := mat.MaxAbsDiff(got, want); diff > tol {
					t.Errorf("seed %d: max diff %g vs serial dgemm", seed, diff)
				}
				injected += sum.FaultsInjected
				if tc.read != nil {
					moved += tc.read(sum)
				}
			}
			if injected == 0 {
				t.Error("no faults injected across three seeds: the class was not exercised")
			}
			if tc.read != nil && moved == 0 {
				t.Errorf("%s stayed 0 across three seeds: the recovery path was not exercised", tc.counter)
			}
		})
	}
}

// TestChaosCrash: an injected rank death must fail loudly, naming the
// crashed rank and op — and must not hang the run.
func TestChaosCrash(t *testing.T) {
	for _, class := range []string{"crash", "crash-early"} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg, recov := classConfig(t, class, seed)
			plan, err := faults.NewPlan(cfg, chaosProcs)
			if err != nil {
				t.Fatal(err)
			}
			wantRank, wantOp := plan.CrashPoint()
			_, _, err = chaosRun(t, &cfg, recov, nil)
			if err == nil {
				t.Fatalf("%s seed %d: crash planned at rank %d op %d but run succeeded", class, seed, wantRank, wantOp)
			}
			var we *armci.WatchdogError
			if errors.As(err, &we) {
				t.Fatalf("%s seed %d: crash hung the run instead of failing loudly: %v", class, seed, err)
			}
			msg := err.Error()
			if !strings.Contains(msg, "rank") || !strings.Contains(msg, "crash") {
				t.Errorf("%s seed %d: error lacks rank/crash context: %q", class, seed, msg)
			}
		}
	}
}

// TestChaosReplayDeterministicReal: the same seed and topology must inject
// the identical fault sequence on every rank across runs of the real
// engine. Drop and corrupt faults are used because their injection points
// are data-dependent, not wall-clock-dependent; the straggler threshold is
// raised so scheduling never depends on timing noise.
func TestChaosReplayDeterministicReal(t *testing.T) {
	cfg := faults.Config{Seed: 99, DropRate: 0.1, CorruptRate: 0.1}
	recov := faults.RecoveryConfig{StragglerLatency: time.Hour, MaxAttempts: 16}
	rec1 := faults.NewRecorder(chaosProcs)
	rec2 := faults.NewRecorder(chaosProcs)
	if _, _, err := chaosRun(t, &cfg, recov, rec1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := chaosRun(t, &cfg, recov, rec2); err != nil {
		t.Fatal(err)
	}
	if rec1.Total() == 0 {
		t.Fatal("no faults recorded: nothing to replay")
	}
	for r := 0; r < chaosProcs; r++ {
		if !reflect.DeepEqual(rec1.Log(r), rec2.Log(r)) {
			t.Errorf("rank %d: fault sequences differ between identical runs:\n run1: %v\n run2: %v",
				r, rec1.Log(r), rec2.Log(r))
		}
	}
}

// TestChaosReplayDeterministicSim: the virtual-time engine consumes the
// same plan through the simnet hook; two runs with the same seed must see
// the identical injected event sequence (the vtime kernel serializes all
// transfers, so the log order is well-defined).
func TestChaosReplayDeterministicSim(t *testing.T) {
	cfg := faults.Config{Seed: 99, DropRate: 0.1, DelayRate: 0.1, Stragglers: 1}
	type ev struct {
		src, dst int
		bytes    int64
		f        simnet.Fault
	}
	runOnce := func() []ev {
		plan, err := faults.NewPlan(cfg, chaosProcs)
		if err != nil {
			t.Fatal(err)
		}
		inner := plan.NetHook()
		var log []ev
		hook := func(src, dst int, bytes int64) simnet.Fault {
			f := inner(src, dst, bytes)
			log = append(log, ev{src, dst, bytes, f})
			return f
		}
		g, err := grid.Square(chaosProcs)
		if err != nil {
			t.Fatal(err)
		}
		d := core.Dims{M: chaosN, N: chaosN, K: chaosN}
		opts := core.Options{Case: core.NN, Flavor: core.FlavorCopy, MaxTaskK: chaosTaskK}
		da, db, dc := core.Dists(g, d, opts.Case)
		_, err = simrt.RunWithFaults(machine.LinuxMyrinet(), chaosProcs, hook, func(c rt.Ctx) {
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			if err := core.Multiply(c, g, d, opts, ga, gb, gc); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	log1 := runOnce()
	log2 := runOnce()
	if len(log1) == 0 {
		t.Fatal("sim run saw no transfers")
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("sim fault-event sequences differ between identical runs (%d vs %d events)", len(log1), len(log2))
	}
	perturbed := 0
	for _, e := range log1 {
		if e.f.Lost || e.f.ExtraLatency > 0 {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Error("no transfer was perturbed: the hook was not exercised")
	}
}

// TestChaosGracefulDegradation: under forever-delays the recovery layer
// must retry past the wedged handles, degrade to blocking mode, and still
// produce the right C.
func TestChaosGracefulDegradation(t *testing.T) {
	want := chaosReference(t)
	cfg := faults.Config{Seed: 4, DelayRate: 0.35, DelayForever: true}
	recov := faults.RecoveryConfig{
		OpTimeout:    2 * time.Millisecond,
		MaxBackoff:   8 * time.Millisecond,
		MaxAttempts:  16,
		DegradeAfter: 2,
	}
	got, sum, err := chaosRun(t, &cfg, recov, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(chaosN) {
		t.Errorf("max diff %g vs serial dgemm", diff)
	}
	if sum.FaultRetries == 0 {
		t.Error("no retries: forever-delays were not exercised")
	}
	if sum.DegradedMode == 0 {
		t.Error("no rank degraded to blocking mode")
	}
}

// TestChaosStragglerStealing: with stragglers planned and a tight latency
// threshold, the executor must re-plan around the slow ranks.
func TestChaosStragglerStealing(t *testing.T) {
	want := chaosReference(t)
	cfg, recov := classConfig(t, "straggle-tight", 6)
	got, sum, err := chaosRun(t, &cfg, recov, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(chaosN) {
		t.Errorf("max diff %g vs serial dgemm", diff)
	}
	if sum.StragglerSteals == 0 {
		t.Error("no tasks were re-ordered around the planned stragglers")
	}
}

// TestChaosWatchdogWithoutRecovery demonstrates why the resilience layer
// exists: injection alone (no Resilient wrapper) with a forever-delayed
// transfer wedges the waiting rank, and the run watchdog converts the hang
// into a WatchdogError naming the leaked rank.
func TestChaosWatchdogWithoutRecovery(t *testing.T) {
	topo := rt.Topology{NProcs: 2, ProcsPerNode: 2}
	plan, err := faults.NewPlan(faults.Config{Seed: 1, DelayRate: 1, DelayForever: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = armci.RunWithTimeout(topo, 500*time.Millisecond, func(raw rt.Ctx) {
		c := faults.Inject(raw, plan, nil)
		g := c.Malloc(8)
		c.Barrier()
		if c.Rank() == 0 {
			dst := c.LocalBuf(8)
			rt.Get(c, g, 1, 0, 8, dst, 0) // forever-delayed: wedges rank 0
		}
		c.Barrier()
	})
	var we *armci.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("want WatchdogError, got %v", err)
	}
	found := false
	for _, r := range we.Leaked {
		if r == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("leaked rank set %v does not name the wedged rank 0", we.Leaked)
	}
}

// TestChaosZeroConfigTransparent: wrapping with a no-fault plan and the
// recovery layer must not change the result or count anything.
func TestChaosZeroConfigTransparent(t *testing.T) {
	want := chaosReference(t)
	cfg := faults.Config{Seed: 1}
	got, sum, err := chaosRun(t, &cfg, faults.RecoveryConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(chaosN) {
		t.Errorf("max diff %g vs serial dgemm", diff)
	}
	if sum.FaultsInjected != 0 || sum.ChecksumErrors != 0 {
		t.Errorf("no-fault plan injected %d faults, %d checksum errors", sum.FaultsInjected, sum.ChecksumErrors)
	}
}
