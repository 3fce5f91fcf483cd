package main

import (
	"fmt"
	"time"

	"srumma/internal/cluster"
	"srumma/internal/ipcrt"
)

// Layer probes: internal/cluster and internal/ipcrt. Pins cluster.New/Config/
// PlaceKey, Pool.Run/Close, ipcrt.JobSpec, ipcrt.RankResult.Stats.

// probeCluster drives the worker-process pool directly — no HTTP, no
// scheduler — with inline operands of the workload's shape, the way the
// server's cluster route does, and sets the result against inProcMs, the same
// product on the in-process team (core.multiply_ms). It runs only where the
// server under test routes through internal/cluster.
func probeCluster(w *workload, its *items, inProcMs float64, d metrics) error {
	g := w.primary()
	it := its.byShape[g][0]
	t0 := time.Now()
	pool, err := cluster.New(cluster.Config{Nodes: w.cfg.ClusterNodes, NP: w.nprocs(), PPN: w.ppn(), HeartbeatEvery: -1})
	if err != nil {
		return err
	}
	defer pool.Close()
	job := func() ([]*ipcrt.RankResult, error) {
		spec := &ipcrt.JobSpec{
			M: g.m, N: g.n, K: g.k, Case: int(g.cs), Alpha: 1,
			Data: true, A: it.a.Data, B: it.b.Data,
			ReturnC: true, ExitRank: -1, HangRank: -1,
		}
		res, err := pool.Run(spec, cluster.PlaceKey{Class: "interactive", M: g.m, N: g.n, K: g.k})
		if err != nil {
			return nil, err
		}
		for rank, rr := range res {
			if rr == nil || rr.Err != "" || rr.Stats == nil {
				return nil, fmt.Errorf("cluster probe: rank %d returned no clean result", rank)
			}
		}
		return res, nil
	}
	if _, err := job(); err != nil {
		return err
	}
	d.set("cluster.first_job_s", "s", time.Since(t0).Seconds())

	const runs = 6
	times := make([]float64, runs)
	var compute, wait, barrier []float64
	_, kid0 := cpuSeconds()
	for i := range times {
		t0 := time.Now()
		res, err := job()
		if err != nil {
			return err
		}
		times[i] = time.Since(t0).Seconds() * 1e3
		var c, wt, br float64
		for _, rr := range res {
			c, wt, br = max(c, rr.Stats.ComputeTime), max(wt, rr.Stats.WaitTime), max(br, rr.Stats.BarrierTime)
		}
		compute, wait, barrier = append(compute, c*1e3), append(wait, wt*1e3), append(barrier, br*1e3)
	}
	_, kid1 := cpuSeconds()
	d.set("cluster.pool_run_ms_p50", "ms", median(times))
	d.set("cluster.hop_overhead_ms", "ms", median(times)-inProcMs)
	d.set("cluster.shipped_bytes_per_op", "B", float64(8*(g.m*g.k+g.k*g.n+g.m*g.n)))
	d.set("cluster.child_cpu_ms_per_op", "ms", (kid1-kid0)*1e3/runs)
	d.set("ipcrt.compute_ms", "ms", median(compute))
	d.set("ipcrt.wait_ms", "ms", median(wait))
	d.set("ipcrt.barrier_ms", "ms", median(barrier))
	return pool.Close()
}
