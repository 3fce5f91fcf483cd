package faults_test

// Chaos suite: end-to-end fault injection on the REAL engine running the
// full SRUMMA multiply. A planted crash fails loudly with an error naming
// the faulty rank and op — never a hang: every run executes under the armci
// watchdog — and the same seed replays the identical fault sequence.

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
	"srumma/internal/mat"
	"srumma/internal/rt"
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
func chaosRun(t *testing.T, cfg *faults.Config, rec *faults.Recorder) (*mat.Matrix, rt.Stats, error) {
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
			body(faults.Inject(c, plan, rec))
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

// TestChaosCrash: an injected rank death must fail loudly, naming the
// crashed rank and op — and must not hang the run.
func TestChaosCrash(t *testing.T) {
	// crash-early lands the death within the first ops.
	for class, span := range map[string]int{"crash": 4, "crash-early": 2} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg := faults.Config{Seed: seed, Crash: true, CrashOpSpan: span}
			plan, err := faults.NewPlan(cfg, chaosProcs)
			if err != nil {
				t.Fatal(err)
			}
			wantRank, wantOp := plan.CrashPoint()
			_, _, err = chaosRun(t, &cfg, nil)
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
// engine. Each rank runs its task list in the planner's order, so its gemm
// stream — and with it every planted bad block — is the same run after run.
func TestChaosReplayDeterministicReal(t *testing.T) {
	cfg := faults.Config{Seed: 99, BadBlockRate: 0.2}
	rec1 := faults.NewRecorder(chaosProcs)
	rec2 := faults.NewRecorder(chaosProcs)
	if _, _, err := chaosRun(t, &cfg, rec1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := chaosRun(t, &cfg, rec2); err != nil {
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

// TestChaosZeroConfigTransparent: wrapping with a no-fault plan must not
// change the result by a bit or count anything.
func TestChaosZeroConfigTransparent(t *testing.T) {
	want, _, err := chaosRun(t, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{Seed: 1}
	got, sum, err := chaosRun(t, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(got, want) {
		t.Error("a no-fault plan changed the product")
	}
	if sum.FaultsInjected != 0 {
		t.Errorf("no-fault plan injected %d faults", sum.FaultsInjected)
	}
}
