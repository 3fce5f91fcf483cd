// Command srumma-info prints the runtime kernel capability of THIS machine
// (which micro-kernel the CPUID/OS gate selected, default kernel-thread
// counts) followed by the modeled platform profiles and the analytic
// predictions of the paper's §2.1 efficiency model for each, so a user can
// see exactly what the reproduction rests on.
//
// Usage:
//
//	srumma-info                 # runtime capability + all platforms
//	srumma-info -platform cray-x1
//	srumma-info -runtime        # runtime capability only
package main

import (
	"flag"
	"fmt"
	"log"
	goruntime "runtime"

	"srumma/internal/armci"
	"srumma/internal/bench"
	"srumma/internal/core"
	"srumma/internal/hier"
	"srumma/internal/ipcrt"
	"srumma/internal/machine"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srumma-info: ")
	name := flag.String("platform", "", "show only this platform")
	runtimeOnly := flag.Bool("runtime", false, "show only this machine's runtime capability")
	flag.Parse()

	if *name == "" {
		showRuntime()
	}
	if *runtimeOnly {
		return
	}

	profiles := []machine.Profile{
		machine.LinuxMyrinet(), machine.IBMSP(), machine.CrayX1(), machine.SGIAltix(),
	}
	for _, p := range profiles {
		if *name != "" && p.Name != *name {
			continue
		}
		show(p)
	}
	if *name != "" {
		if _, err := machine.ByName(*name); err != nil {
			log.Fatal(err)
		}
	}
}

// showRuntime reports what the real engine will actually use on this
// machine: the micro-kernel that passed its feature gate and the per-rank
// kernel-thread defaults the oversubscription guard computes.
func showRuntime() {
	fmt.Println("runtime (this machine)")
	fmt.Printf("  micro-kernel: %s (vector gate passed: %v)\n", mat.KernelName(), mat.HasVectorKernel())
	fmt.Printf("  GOMAXPROCS: %d (NumCPU %d)\n", goruntime.GOMAXPROCS(0), goruntime.NumCPU())
	fmt.Printf("  default kernel threads/rank:")
	for _, nprocs := range []int{1, 4, 16} {
		fmt.Printf(" %d ranks: %d;", nprocs, armci.DefaultKernelThreads(nprocs))
	}
	fmt.Println()
	ipcState := "unavailable (no mmap shared segments on this platform)"
	if ipcrt.Available() {
		ipcState = "available (mmap segments + unix-socket RMA; srumma-bench/-trace -engine ipc)"
	}
	fmt.Printf("  engines: armci (in-process), sim (virtual time), ipc %s\n", ipcState)
	fmt.Println()
}

func show(p machine.Profile) {
	fmt.Printf("platform %s\n", p.Name)
	fmt.Printf("  topology: %d procs/node", p.ProcsPerNode)
	if p.DomainSpansMachine {
		fmt.Printf(", machine-wide shared memory (remote cacheable: %v)", p.RemoteCacheable)
	}
	fmt.Println()
	fmt.Printf("  dgemm: %.2f GFLOP/s asymptotic, surface overhead %.0f flops/elem\n",
		p.PeakFlops/1e9, p.GemmSurface)
	fmt.Printf("         rate at 64³: %.2f, 256³: %.2f, 1024³: %.2f GFLOP/s\n",
		p.GemmRate(64, 64, 64, false)/1e9,
		p.GemmRate(256, 256, 256, false)/1e9,
		p.GemmRate(1024, 1024, 1024, false)/1e9)
	fmt.Printf("  memory: %.1f GB/s port, %.1f GB/s single-copy, %.2f us latency\n",
		p.MemBW/1e9, p.CopyBW/1e9, p.MemLatency*1e6)
	fmt.Printf("  network: %.2f GB/s per NIC, %.1f us latency\n", p.NetBW/1e9, p.NetLatency*1e6)
	fmt.Printf("  RMA: %.1f us get overhead, zero-copy %v", p.RMALatency*1e6, p.ZeroCopy)
	if !p.ZeroCopy {
		fmt.Printf(" (staging at %.0f MB/s)", p.HostCopyBW/1e6)
	}
	fmt.Println()
	fmt.Printf("  MPI: %.1f us latency, %.0f MB/s effective, eager threshold %d B\n",
		p.MPILatency*1e6, p.MPIBW/1e6, p.EagerThreshold)

	fmt.Printf("  model predictions (eq. 1/3), N=2000:\n")
	fmt.Printf("    %6s %16s %16s\n", "P", "no overlap (s)", "full overlap (s)")
	for _, procs := range []int{4, 16, 64} {
		fmt.Printf("    %6d %16.4g %16.4g\n", procs,
			bench.PredictSRUMMA(p, 2000, procs, false),
			bench.PredictSRUMMA(p, 2000, procs, true))
	}

	// The two-level carving the hierarchical planner would choose on this
	// platform: groups x intra-group shape, with the predicted per-level
	// communication volume next to the flat pipeline's.
	fmt.Printf("  two-level topology (chosen by hier.Choose), N=2000:\n")
	fmt.Printf("    %6s %10s %12s %14s %14s %14s\n",
		"P", "grid", "groups", "flat remote", "outer remote", "staged")
	for _, procs := range []int{4, 16, 64} {
		topo := rt.Topology{
			NProcs:             procs,
			ProcsPerNode:       p.ProcsPerNode,
			DomainSpansMachine: p.DomainSpansMachine,
		}
		d := core.Dims{M: 2000, N: 2000, K: 2000}
		ht, err := hier.Choose(topo, d, hier.Options{})
		if err != nil {
			fmt.Printf("    %6d  unavailable: %v\n", procs, err)
			continue
		}
		gr, gc := ht.GroupShape(0)
		v := hier.PredictVolumes(ht, d, hier.Options{})
		fmt.Printf("    %6d %10s %6d x %dx%d %14d %14d %14d\n",
			procs, fmt.Sprintf("%dx%d", ht.Grid.P, ht.Grid.Q),
			ht.NumDomains(), gr, gc, v.FlatRemote, v.OuterRemote, v.Staged)
	}
	fmt.Println()
}
