package faults_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/faults"
	"srumma/internal/rt"
)

func TestConfigValidate(t *testing.T) {
	bad := []faults.Config{
		{DropRate: -0.1},
		{DelayRate: 1.5},
		{CorruptRate: -1},
		{DropRate: 0.5, DelayRate: 0.4, CorruptRate: 0.2}, // sum > 1
		{Stragglers: -1},
	}
	for _, cfg := range bad {
		if _, err := faults.NewPlan(cfg, 4); err == nil {
			t.Errorf("config %+v: want error, got nil", cfg)
		}
	}
	if _, err := faults.NewPlan(faults.Config{DropRate: 0.3, DelayRate: 0.3, CorruptRate: 0.3}, 4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := faults.NewPlan(faults.Config{}, 0); err == nil {
		t.Error("0 ranks: want error, got nil")
	}
}

// TestPlanDeterminism is the replay contract at the planner level: the
// schedule is a pure function of (Config, nprocs).
func TestPlanDeterminism(t *testing.T) {
	cfg := faults.Config{
		Seed: 42, DropRate: 0.2, DelayRate: 0.2, CorruptRate: 0.2,
		Stragglers: 2, Crash: true,
	}
	p1, err := faults.NewPlan(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := faults.NewPlan(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Schedule(128), p2.Schedule(128)) {
		t.Error("same config, same topology: schedules differ")
	}
	r1, o1 := p1.CrashPoint()
	r2, o2 := p2.CrashPoint()
	if r1 != r2 || o1 != o2 {
		t.Errorf("crash point not deterministic: (%d,%d) vs (%d,%d)", r1, o1, r2, o2)
	}
	for r := 0; r < 8; r++ {
		if p1.Straggler(r) != p2.Straggler(r) {
			t.Errorf("straggler set not deterministic at rank %d", r)
		}
	}

	// And At is pure: evaluation order must not matter.
	if f1, f2 := p1.At(3, 77), p1.At(3, 77); f1 != f2 {
		t.Errorf("At not pure: %+v vs %+v", f1, f2)
	}

	// A different seed plans a different schedule (at these rates, 8x128
	// identical rolls would be astronomically unlikely).
	cfg.Seed = 43
	p3, err := faults.NewPlan(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.Schedule(128), p3.Schedule(128)) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestPlanRates(t *testing.T) {
	p, err := faults.NewPlan(faults.Config{Seed: 7, DropRate: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for op := 0; op < 64; op++ {
			if f := p.At(r, op); f.Class != faults.Drop {
				t.Fatalf("DropRate=1: rank %d op %d got %v", r, op, f.Class)
			}
		}
	}
	p, err = faults.NewPlan(faults.Config{Seed: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for op := 0; op < 64; op++ {
			if f := p.At(r, op); f.Class != faults.None {
				t.Fatalf("zero rates: rank %d op %d got %v", r, op, f.Class)
			}
		}
	}
}

func TestStragglerSet(t *testing.T) {
	for _, want := range []int{0, 1, 3, 6, 9} {
		p, err := faults.NewPlan(faults.Config{Seed: 5, Stragglers: want}, 6)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for r := 0; r < 6; r++ {
			if p.Straggler(r) {
				n++
			}
		}
		capped := want
		if capped > 6 {
			capped = 6
		}
		if n != capped {
			t.Errorf("Stragglers=%d: %d ranks flagged, want %d", want, n, capped)
		}
	}
}

func TestCrashPointBounds(t *testing.T) {
	p, err := faults.NewPlan(faults.Config{Seed: 9, Crash: true, CrashOpSpan: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, op := p.CrashPoint()
	if r < 0 || r >= 3 || op < 0 || op >= 5 {
		t.Errorf("crash point (%d,%d) outside rank [0,3) x op [0,5)", r, op)
	}
	p, err = faults.NewPlan(faults.Config{Seed: 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r, op := p.CrashPoint(); r != -1 || op != -1 {
		t.Errorf("no crash planned but CrashPoint = (%d,%d)", r, op)
	}
}

// TestPutRecovery drives the recovery loop at the op level: rank 0 puts
// batches into rank 1's segment through the injector at aggressive
// drop+corrupt rates; every batch must land bit-correct (verified from the
// target's own view) and the stats must show the detected checksum
// failures and re-issues.
func TestPutRecovery(t *testing.T) {
	const n, rounds = 32, 12
	topo := rt.Topology{NProcs: 2, ProcsPerNode: 2}
	plan, err := faults.NewPlan(faults.Config{Seed: 11, DropRate: 0.25, CorruptRate: 0.25}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got [rounds][n]float64
	stats, err := armci.Run(topo, func(raw rt.Ctx) {
		c := faults.Resilient(faults.Inject(raw, plan, nil), faults.RecoveryConfig{
			OpTimeout: 2 * time.Millisecond, MaxAttempts: 12,
		})
		g := c.Malloc(n)
		c.Barrier()
		if c.Rank() == 0 {
			src := c.LocalBuf(n)
			for round := 0; round < rounds; round++ {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = float64(round*n + i)
				}
				c.WriteBuf(src, 0, vals)
				rt.Put(c, src, 0, n, g, 1, 0)
				copy(got[round][:], c.ReadBuf(c.Direct(g, 1), 0, n))
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		for i, v := range got[round] {
			if v != float64(round*n+i) {
				t.Fatalf("round %d elem %d: got %g, want %g", round, i, v, float64(round*n+i))
			}
		}
	}
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	if sum.FaultsInjected == 0 {
		t.Error("no faults injected at 50% combined rate over 12 puts")
	}
	if sum.ChecksumErrors == 0 || sum.FaultRefetches == 0 {
		t.Errorf("recovery not exercised: %d checksum errors, %d refetches", sum.ChecksumErrors, sum.FaultRefetches)
	}
}

// TestGetRecovery is the read-side counterpart: gets through the injector
// at drop+corrupt rates must always land the authoritative source data.
func TestGetRecovery(t *testing.T) {
	const n, rounds = 32, 12
	topo := rt.Topology{NProcs: 2, ProcsPerNode: 2}
	plan, err := faults.NewPlan(faults.Config{Seed: 17, DropRate: 0.25, CorruptRate: 0.25}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bad int
	stats, err := armci.Run(topo, func(raw rt.Ctx) {
		c := faults.Resilient(faults.Inject(raw, plan, nil), faults.RecoveryConfig{
			OpTimeout: 2 * time.Millisecond, MaxAttempts: 12,
		})
		g := c.Malloc(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(c.Rank()*1000 + i)
		}
		c.WriteBuf(c.Local(g), 0, vals)
		c.Barrier()
		if c.Rank() == 0 {
			dst := c.LocalBuf(n)
			for round := 0; round < rounds; round++ {
				rt.Get(c, g, 1, 0, n, dst, 0)
				for i, v := range c.ReadBuf(dst, 0, n) {
					if v != float64(1000+i) {
						bad++
					}
				}
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Fatalf("%d corrupted elements survived recovery", bad)
	}
	var sum rt.Stats
	for _, s := range stats {
		sum.Add(s)
	}
	if sum.FaultsInjected == 0 || sum.FaultRefetches == 0 {
		t.Errorf("recovery not exercised: %d faults, %d refetches", sum.FaultsInjected, sum.FaultRefetches)
	}
}

// TestInjectorSeesContiguousTransfers: the injector overrides the strided
// pair and Wait, and rt.Get / rt.Put are built on the pair — so a planned
// drop takes a contiguous transfer like any other: the get lands nothing,
// the put writes nothing, and both count as injected.
func TestInjectorSeesContiguousTransfers(t *testing.T) {
	const n = 8
	plan, err := faults.NewPlan(faults.Config{Seed: 3, DropRate: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := armci.Run(rt.Topology{NProcs: 2, ProcsPerNode: 1}, func(raw rt.Ctx) {
		c := faults.Inject(raw, plan, nil)
		g := c.Malloc(n)
		ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
		c.WriteBuf(c.Local(g), 0, ones)
		c.Barrier()
		if c.Rank() == 0 {
			buf := c.LocalBuf(n) // zeroed
			rt.Get(c, g, 1, 0, n, buf, 0)
			if got := c.ReadBuf(buf, 0, n); !slices.Equal(got, make([]float64, n)) {
				t.Errorf("a dropped get landed %v", got)
			}
			rt.Put(c, buf, 0, n, g, 1, 0)
		}
		c.Barrier()
		if got := c.ReadBuf(c.Local(g), 0, n); !slices.Equal(got, ones) {
			t.Errorf("rank %d's segment after a dropped put: %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].FaultsInjected != 2 {
		t.Errorf("%d faults injected on two contiguous transfers, want 2", stats[0].FaultsInjected)
	}
}

// TestWrappersKeepCapabilitiesDiscoverable: rt.Find is the one walk down a
// wrapper chain, and the chaos stack — recovery layer over injector over
// engine — must not hide what the layers provide: the engine's source
// checksums (the recovery layer's own end-to-end check), in-place operand
// adoption and buffer recycling, and the recovery layer's health verdicts.
func TestWrappersKeepCapabilitiesDiscoverable(t *testing.T) {
	plan, err := faults.NewPlan(faults.Config{Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = armci.Run(rt.Topology{NProcs: 2, ProcsPerNode: 2}, func(raw rt.Ctx) {
		if raw.Rank() != 0 {
			return
		}
		c := faults.Resilient(faults.Inject(raw, plan, nil), faults.RecoveryConfig{})
		for _, tc := range []struct {
			capability string
			found      bool
		}{
			{"faults.SourceChecksummer", rt.Find[faults.SourceChecksummer](c) != nil},
			{"rt.Adopter", rt.Find[rt.Adopter](c) != nil},
			{"rt.Health", rt.Find[rt.Health](c) != nil},
			{"rt.BufferReleaser", rt.Find[rt.BufferReleaser](c) != nil},
		} {
			if !tc.found {
				t.Errorf("%s not found through Resilient(Inject(engine))", tc.capability)
			}
		}
		if rt.Find[rt.Health](raw) != nil {
			t.Error("the bare engine reports rank health: the verdicts are the recovery layer's")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
