package main

// The multi-process engine trace path. It reuses the event model
// everything else in the repo speaks: each worker process records
// wall-clock spans into its own recorder, ships them home in its
// RankResult, and MergeEvents aligns the lanes on the coordinator's clock.

import (
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/obs"
)

// ipcOpts carries the multi-host knobs from the flag surface: transport
// choice, a fixed control listener, and no-spawn mode where every rank is
// an external srumma-worker -join (possibly on another host/container).
type ipcOpts struct {
	Transport string
	Listen    string
	NoSpawn   bool
	Dir       string
}

// runIPC runs one traced multiply on the multi-process engine: every rank
// is an OS process, intra-node operands ride mmap segments, cross-node
// operands the socket RMA protocol (unix default, tcp for multi-host).
func runIPC(g *grid.Grid, d core.Dims, procs, ppn, width int, blocking, noshift bool, chrome string, flops float64, ipo ipcOpts) ([]obs.Event, float64) {
	if ppn <= 0 {
		ppn = procs
	}
	if !ipcrt.Available() {
		log.Fatal("the ipc engine is unavailable on this platform (no mmap shared segments)")
	}
	if ipo.NoSpawn {
		if ipo.Listen == "" || ipo.Dir == "" {
			log.Fatal("-no-spawn needs -listen and -dir (external workers dial the listener and share the run directory)")
		}
		fmt.Printf("waiting for %d external workers; on each host run (ranks r=0..%d):\n", procs, procs-1)
		fmt.Printf("  srumma-worker -join tcp:%s -rank $r -np %d -ppn %d -dir %s -transport %s\n\n",
			ipo.Listen, procs, ppn, ipo.Dir, ipo.Transport)
	}
	cl, err := ipcrt.Launch(ipcrt.Config{
		NP: procs, PPN: ppn,
		Transport:  ipo.Transport,
		ListenAddr: strings.TrimPrefix(ipo.Listen, "tcp:"),
		NoSpawn:    ipo.NoSpawn,
		Dir:        ipo.Dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	spec := ipcrt.DefaultSpec(d.M, d.N, d.K)
	spec.SingleBuffer = blocking
	spec.NoDiagonalShift = noshift
	spec.Trace = true

	epoch := time.Now()
	results, err := cl.RunJob(spec, 10*time.Minute)
	wall := time.Since(epoch).Seconds()
	if err != nil {
		log.Fatal(err)
	}
	events := ipcrt.MergeEvents(results, epoch)

	fmt.Printf("srumma %dx%dx%d on ipc engine, %d worker processes (%dx%d grid, %d/node): %.3f ms, %.1f GFLOP/s\n",
		d.M, d.N, d.K, procs, g.P, g.Q, ppn, wall*1e3, flops/wall/1e9)
	var remoteGets, remoteBytes, directMaps int64
	for _, res := range results {
		remoteGets += res.Stats.GetsRemote
		remoteBytes += res.Stats.BytesRemote
		directMaps += res.DirectMaps
	}
	fmt.Printf("transport: %d peer segments mmapped (direct path), %d socket gets moving %.2f MB (RMA path)\n",
		directMaps, remoteGets, float64(remoteBytes)/1e6)
	fmt.Println()

	horizon := 0.0
	for _, e := range events {
		if e.End > horizon {
			horizon = e.End
		}
	}
	fmt.Printf("timeline (g=gemm w=wait t=get u=put c=copy p=pack b=barrier s=serve j=job):\n")
	fmt.Print(obs.Timeline(events, procs, width, horizon))
	busy := make([]obs.Event, 0, len(events))
	for _, e := range events {
		if e.Kind != obs.KindJob && e.Kind != obs.KindIssue {
			busy = append(busy, e)
		}
	}
	printActivity(busy, procs, horizon)

	writeChrome(chrome, func(w io.Writer) error { return obs.WriteChromeTrace(w, events, procs, "srumma ipc run") })
	return events, wall
}
