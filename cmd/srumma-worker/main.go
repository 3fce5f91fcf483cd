// srumma-worker is one rank of the multi-process ipc engine. It is not
// meant to be run by hand: the coordinator (srumma-bench/srumma-trace with
// -engine ipc, srumma-serve -cluster, or ipcrt.Launch in a program) spawns
// it with the SRUMMA_IPC_* environment describing the rank, topology and
// run directory. Normally the coordinator re-executes its own binary
// instead; this command exists as the explicit worker for foreign
// launchers (Config.WorkerPath) and — with -join — as an EXTERNAL worker
// that dials a NoSpawn coordinator's advertised control address itself:
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
	ipcrt.MaybeWorker() // never returns when launched as a worker

	join := flag.String("join", "", `coordinator control address to join ("unix:/path" or "tcp:host:port")`)
	rank := flag.Int("rank", -1, "this worker's rank (needs -join)")
	np := flag.Int("np", 0, "total rank count of the cluster (needs -join)")
	ppn := flag.Int("ppn", 0, "ranks per emulated shared-memory domain (needs -join)")
	dir := flag.String("dir", "", "shared run directory for segment files and unix RMA sockets (needs -join)")
	transport := flag.String("transport", "", `RMA transport: "unix" (default) or "tcp"`)
	flag.Parse()

	if *join != "" {
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

	fmt.Fprintln(os.Stderr, `srumma-worker: not launched by an ipc coordinator.

This binary is one rank of the multi-process SRUMMA engine and expects the
SRUMMA_IPC_WORKER / SRUMMA_IPC_RANK / SRUMMA_IPC_NP / SRUMMA_IPC_PPN /
SRUMMA_IPC_DIR environment set by the launcher, or an explicit -join
pointing at a NoSpawn coordinator. Use:

    srumma-bench -engine ipc -np 4 -ppn 2 ...
    srumma-serve -cluster -nodes 2 ...
    srumma-worker -join unix:/run/srumma/coord.sock -rank 0 -np 4 -ppn 2 -dir /run/srumma

or ipcrt.Launch from Go.`)
	os.Exit(2)
}
