package main

import (
	"fmt"
	"time"

	"srumma"
	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/rt"
)

// Layer probes: internal/driver, internal/core, internal/hier. Pins
// driver.AllocBlock/LoadBlock/StoreBlock/NewCollect, grid.Square,
// grid.NewBlockDist(...).Gather, core.Dists/Multiply/Plan/Options,
// hier.From/Multiply/Options and the rt.Stats fields read below.
//
// The rig is a benchmark-owned copy of the rank body srumma.Cluster.Multiply
// (and the server's srumma route) run on an armci.Team, with a clock read at
// every layer boundary. Spans inside the program are a later issue; until then
// this is how scatter, multiply and gather are told apart from outside.

func gridShape(nprocs int) (rows, cols int) {
	g, err := grid.Square(nprocs)
	if err != nil {
		return 1, nprocs
	}
	return g.P, g.Q
}

type rig struct {
	topo rt.Topology
	g    *grid.Grid
	team *armci.Team
}

func newRig(nprocs, ppn int) (*rig, error) {
	topo := topology(nprocs, ppn)
	g, err := grid.Square(nprocs)
	if err != nil {
		return nil, err
	}
	team, err := armci.NewTeam(topo)
	if err != nil {
		return nil, err
	}
	return &rig{topo, g, team}, nil
}

func (r *rig) close() error { return r.team.Close() }

// rankClock is one rank's clock readings: entering the body, operands loaded,
// multiply returned, C block stored.
type rankClock struct{ start, scattered, multiplied, stored time.Time }

// rigRun is one multiply through the rig.
type rigRun struct {
	c          *srumma.Matrix
	begin      time.Time // Team.Run called
	ran        time.Time // Team.Run returned
	end        time.Time // C gathered
	ranks      []rankClock
	stats      []*rt.Stats
	multiplyAs string // span name of the multiply: core.multiply or hier.multiply
}

func (r *rig) multiply(g gemm, a, b *srumma.Matrix, useHier bool) (*rigRun, error) {
	d := core.Dims{M: g.m, N: g.n, K: g.k}
	opts := core.Options{Case: g.cs, Flavor: core.FlavorDirect}
	da, db, dc := core.Dists(r.g, d, g.cs)
	n := r.topo.NProcs
	run := &rigRun{ranks: make([]rankClock, n), multiplyAs: "core.multiply"}
	if useHier {
		run.multiplyAs = "hier.multiply"
	}
	errs := make([]error, n)
	co := driver.NewCollect(n)
	run.begin = time.Now()
	stats, err := r.team.Run(func(c rt.Ctx) {
		me := c.Rank()
		clk := &run.ranks[me]
		clk.start = time.Now()
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		driver.LoadBlock(c, da, ga, a)
		driver.LoadBlock(c, db, gb, b)
		clk.scattered = time.Now()
		if useHier {
			errs[me] = hier.Multiply(c, hier.From(r.topo, r.g), d, hier.Options{Options: opts}, ga, gb, gc)
		} else {
			errs[me] = core.Multiply(c, r.g, d, opts, ga, gb, gc)
		}
		clk.multiplied = time.Now()
		co.Deposit(c, driver.StoreBlock(c, dc, gc))
		clk.stored = time.Now()
	})
	run.ran = time.Now()
	if err != nil {
		return nil, err
	}
	for rank, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, e)
		}
	}
	run.c, err = grid.NewBlockDist(r.g, g.m, g.n).Gather(co.Blocks)
	run.end = time.Now()
	run.stats = stats
	return run, err
}

// phases returns the blocking-path time of each layer in ms: every phase is
// as long as its slowest rank; the host-side gather of the C blocks is added
// to the per-rank store.
func (run *rigRun) phases() (scatter, multiply, gather float64) {
	for _, clk := range run.ranks {
		scatter = max(scatter, clk.scattered.Sub(clk.start).Seconds())
		multiply = max(multiply, clk.multiplied.Sub(clk.scattered).Seconds())
		gather = max(gather, clk.stored.Sub(clk.multiplied).Seconds())
	}
	gather += run.end.Sub(run.ran).Seconds()
	return scatter * 1e3, multiply * 1e3, gather * 1e3
}

// record draws the run as spans under the operation's root span: the team run
// on the caller's lane, each rank's scatter/multiply/gather on its own lane,
// and the host-side gather after the team parked.
func (run *rigRun) record(tr *tracer, root int, lane string) {
	teamRun := tr.add(span{Parent: root, Op: root, Name: "armci.team_run", Lane: lane, Start: run.begin, End: run.ran})
	for rank, clk := range run.ranks {
		rl := fmt.Sprintf("rank%02d", rank)
		tr.add(span{Parent: teamRun, Op: root, Name: "driver.scatter", Lane: rl, Start: clk.start, End: clk.scattered})
		tr.add(span{Parent: teamRun, Op: root, Name: run.multiplyAs, Lane: rl, Start: clk.scattered, End: clk.multiplied})
		tr.add(span{Parent: teamRun, Op: root, Name: "driver.gather", Lane: rl, Start: clk.multiplied, End: clk.stored})
	}
	tr.add(span{Parent: root, Op: root, Name: "driver.gather", Lane: lane, Start: run.ran, End: run.end})
}

// timeShares sums the engine's own accounting over ranks: the paper's overlap
// measure is how little of compute+wait+barrier is wait.
func timeShares(stats []*rt.Stats) (wait, barrier float64, sum rt.Stats) {
	for _, s := range stats {
		sum.Add(s)
	}
	total := sum.ComputeTime + sum.WaitTime + sum.BarrierTime
	if total == 0 {
		return 0, 0, sum
	}
	return sum.WaitTime / total, sum.BarrierTime / total, sum
}

// tasksPerOp is the planned task count summed over ranks — exact.
func (r *rig) tasksPerOp(g gemm) int {
	d := core.Dims{M: g.m, N: g.n, K: g.k}
	n := 0
	for rank := range r.topo.NProcs {
		n += len(core.Plan(r.topo, rank, r.g, d, core.Options{Case: g.cs, Flavor: core.FlavorDirect}))
	}
	return n
}

// probeCore runs the workload's primary shape through the rig on the
// workload's topology and reports what each layer under Cluster.Multiply
// costs, plus the engine's exact traffic counts.
func probeCore(w *workload, its *items, taskGflops float64, m metrics) error {
	r, err := newRig(w.nprocs(), w.ppn())
	if err != nil {
		return err
	}
	defer r.close()
	g := w.primary()
	it := its.byShape[g][0]
	const reps = 7
	var scat, mult, gath, waitSh, barSh []float64
	var last rt.Stats
	for i := range reps + 1 {
		run, err := r.multiply(g, it.a, it.b, false)
		if err != nil {
			return err
		}
		if i == 0 {
			continue // warms the team's scratch pools
		}
		s, mu, ga := run.phases()
		ws, bs, sum := timeShares(run.stats)
		scat, mult, gath = append(scat, s), append(mult, mu), append(gath, ga)
		waitSh, barSh, last = append(waitSh, ws), append(barSh, bs), sum
	}
	m.set("driver.scatter_ms", "ms", median(scat))
	m.set("driver.gather_ms", "ms", median(gath))
	m.set("core.multiply_ms", "ms", median(mult))
	m.set("core.wait_share", "ratio", median(waitSh))
	m.set("core.barrier_share", "ratio", median(barSh))
	cores := float64(min(w.nprocs(), gomaxprocs()))
	idealMs := g.flops() / (taskGflops * 1e9) / cores * 1e3
	m.set("core.kernel_efficiency", "ratio", idealMs/median(mult))
	m.set("core.tasks_per_op", "count", float64(r.tasksPerOp(g)))
	m.set("armci.bytes_remote_per_op", "B", float64(last.BytesRemote))
	m.set("armci.bytes_shared_per_op", "B", float64(last.BytesShared))
	m.set("armci.gets_remote_per_op", "count", float64(last.GetsRemote))
	return nil
}

// probeHier runs a hierarchical workload's shape on its team both ways —
// through hier.Multiply and through flat core.Multiply — and compares wall time
// and inter-domain bytes. It runs only where the server under test routes
// through internal/hier.
func probeHier(w *workload, its *items, d metrics) error {
	r, err := newRig(w.nprocs(), w.ppn())
	if err != nil {
		return err
	}
	defer r.close()
	g := w.primary()
	it := its.byShape[g][0]
	const reps = 5
	var ms [2][]float64
	var remote [2]int64
	var cs [2]*srumma.Matrix
	for i := range reps + 1 {
		for mode, useHier := range []bool{false, true} {
			run, err := r.multiply(g, it.a, it.b, useHier)
			if err != nil {
				return err
			}
			if i == 0 {
				continue
			}
			_, mu, _ := run.phases()
			_, _, sum := timeShares(run.stats)
			ms[mode] = append(ms[mode], mu)
			remote[mode], cs[mode] = sum.BytesRemote, run.c
		}
	}
	if !bitEqual(cs[0].Data, cs[1].Data) {
		return fmt.Errorf("hier probe: hierarchical and flat results differ")
	}
	d.set("hier.flat_multiply_ms", "ms", median(ms[0]))
	d.set("hier.multiply_ms", "ms", median(ms[1]))
	d.set("hier.bytes_remote_per_op", "B", float64(remote[1]))
	d.set("hier.volume_ratio", "ratio", float64(remote[1])/float64(remote[0]))
	return nil
}

// planReplay is the bit-identity reference for every distributed route: the
// serial kernel applied task by task, in the order core.Plan gives each rank —
// the arithmetic the executor must reproduce exactly, with none of its data
// movement. (One serial mat.Gemm over the whole of K sums in another order, so
// it agrees with a distributed result only to rounding.)
func planReplay(g gemm, a, b *srumma.Matrix, nprocs, ppn int) (*srumma.Matrix, error) {
	topo := topology(nprocs, ppn)
	gr, err := grid.Square(nprocs)
	if err != nil {
		return nil, err
	}
	d := core.Dims{M: g.m, N: g.n, K: g.k}
	opts := core.Options{Case: g.cs, Flavor: core.FlavorDirect}
	da, db, dc := core.Dists(gr, d, g.cs)
	c := srumma.NewMatrix(g.m, g.n)
	for rank := range nprocs {
		ci, cj := dc.BlockOrigin(gr.Coords(rank))
		for _, t := range core.Plan(topo, rank, gr, d, opts) {
			ai, aj := da.BlockOrigin(gr.Coords(t.AOwner))
			bi, bj := db.BlockOrigin(gr.Coords(t.BOwner))
			beta := 1.0
			if t.First {
				beta = 0
			}
			if _, err := serialGemmInto(g.cs,
				a.View(ai+t.ASubI, aj+t.ASubJ, t.ASubR, t.ASubC),
				b.View(bi+t.BSubI, bj+t.BSubJ, t.BSubR, t.BSubC),
				beta, c.View(ci+t.CI, cj+t.CJ, t.CR, t.CC)); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}
