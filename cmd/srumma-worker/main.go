// srumma-worker is one EXTERNAL rank of the multi-process ipc engine: it
// dials a NoSpawn coordinator's advertised control address (srumma-trace
// -engine ipc -no-spawn, or ipcrt.Launch with NoSpawn in a program) and
// runs the jobs it dispatches. A coordinator that spawns its own ranks
// (srumma-serve -cluster; srumma-trace -engine ipc) re-executes its own
// binary instead and never starts this one.
//
//	srumma-worker -join unix:/run/srumma/coord.sock -rank 2 -np 4 -ppn 2 -dir /run/srumma
//	srumma-worker -join tcp:coord-host:7411 -rank 2 -np 4 -ppn 2 -dir /run/srumma -transport tcp
package main

import (
	"flag"
	"fmt"
	"os"

	"srumma/internal/ipcrt"
	_ "srumma/internal/job" // the GEMM body this rank runs
)

func main() {
	join := flag.String("join", "", `coordinator control address to join ("unix:/path" or "tcp:host:port")`)
	rank := flag.Int("rank", -1, "this worker's rank (needs -join)")
	np := flag.Int("np", 0, "total rank count of the cluster (needs -join)")
	ppn := flag.Int("ppn", 0, "ranks per emulated shared-memory domain (needs -join)")
	dir := flag.String("dir", "", "shared run directory for segment files and unix RMA sockets (needs -join)")
	transport := flag.String("transport", "", `RMA transport: "unix" (default) or "tcp"`)
	flag.Parse()

	if *join == "" {
		fmt.Fprintln(os.Stderr, `srumma-worker: no -join address.

This binary is one external rank of the multi-process SRUMMA engine: it
joins a coordinator that waits for its ranks instead of spawning them.
Start one with

    srumma-trace -engine ipc -no-spawn -procs 4 -ppn 2 -listen 127.0.0.1:7411 -dir /run/srumma

and then, for each rank r of 0..3,

    srumma-worker -join tcp:127.0.0.1:7411 -rank r -np 4 -ppn 2 -dir /run/srumma -transport tcp

Coordinators that spawn their ranks (srumma-trace -engine ipc -procs 4 -ppn 2,
srumma-serve -cluster) re-execute their own binary and need no srumma-worker.`)
		os.Exit(2)
	}
	if *rank < 0 || *np <= 0 || *ppn <= 0 || *dir == "" {
		fmt.Fprintln(os.Stderr, "srumma-worker: -join needs -rank, -np, -ppn and -dir")
		os.Exit(2)
	}
	os.Exit(ipcrt.RunWorker(ipcrt.WorkerParams{
		Rank:      *rank,
		NP:        *np,
		PPN:       *ppn,
		Dir:       *dir,
		CoordAddr: *join,
		Transport: *transport,
	}))
}
