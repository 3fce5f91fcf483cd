package main

import (
	"fmt"
	"time"

	"srumma/internal/armci"
	"srumma/internal/rt"
)

// Layer probe: internal/armci (and the rt.Ctx it hands out). Pins
// armci.NewTeam, Team.Run, Team.Close and the rt.Ctx methods Barrier, Malloc,
// LocalBuf, NbGetSub, Wait, Free.

func topology(nprocs, ppn int) rt.Topology {
	return rt.Topology{NProcs: nprocs, ProcsPerNode: ppn}
}

// probeArmci measures the runtime with no algorithm on top, on the workload's
// topology: what one Team.Run costs with an empty body (dispatch + park), one
// barrier, and a one-sided strided get of a 512 x 512 block between domains.
func probeArmci(w *workload, m metrics) error {
	topo := topology(w.nprocs(), w.ppn())
	team, err := armci.NewTeam(topo)
	if err != nil {
		return err
	}
	defer team.Close()

	const runs = 200
	empty := func(rt.Ctx) {}
	if _, err := team.Run(empty); err != nil {
		return err
	}
	times := make([]float64, runs)
	for i := range times {
		t0 := time.Now()
		if _, err := team.Run(empty); err != nil {
			return err
		}
		times[i] = time.Since(t0).Seconds()
	}
	m.set("armci.team_run_empty_us", "us", median(times)*1e6)

	const barriers = 100
	var barrierS float64
	for range 5 {
		if _, err := team.Run(func(c rt.Ctx) {
			t0 := time.Now()
			for range barriers {
				c.Barrier()
			}
			if c.Rank() == 0 {
				barrierS = time.Since(t0).Seconds() / barriers
			}
		}); err != nil {
			return err
		}
	}
	m.set("armci.barrier_us", "us", barrierS*1e6)

	// Rank 0 pulls a block owned by the first rank of another domain.
	const n, gets = 512, 20
	owner := topo.ProcsPerNode
	if owner >= topo.NProcs || topo.DomainOf(owner) == topo.DomainOf(0) {
		return fmt.Errorf("armci probe: topology %+v has no second domain", topo)
	}
	var getS float64
	if _, err := team.Run(func(c rt.Ctx) {
		g := c.Malloc(n * n)
		c.Barrier()
		if c.Rank() == 0 {
			dst := c.LocalBuf(n * n)
			c.Wait(c.NbGetSub(g, owner, 0, n, n, n, dst, 0))
			t0 := time.Now()
			for range gets {
				c.Wait(c.NbGetSub(g, owner, 0, n, n, n, dst, 0))
			}
			getS = time.Since(t0).Seconds() / gets
		}
		c.Barrier()
		c.Free(g)
	}); err != nil {
		return err
	}
	m.set("armci.get_remote_mbps", "MB/s", float64(n*n*8)/getS/1e6)
	return nil
}
