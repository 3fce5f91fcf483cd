// Command srumma-bench regenerates the paper's evaluation: every figure
// (5-10) and Table 1, plus the §2.1 analytic-model comparison and the
// design-choice ablations, all on the virtual-time platform models.
//
// Usage:
//
//	srumma-bench -fig 10            # one figure (5..10)
//	srumma-bench -table 1           # Table 1
//	srumma-bench -model             # efficiency model vs simulation
//	srumma-bench -iso               # isoefficiency demonstration
//	srumma-bench -ablations         # SRUMMA design ablations
//	srumma-bench -all               # everything
//	srumma-bench -chaos -seed 7     # fault-injection sweep, real engine
//	srumma-bench -kernel            # local dgemm kernel sweep, real hardware
//	srumma-bench -fig 10 -quick     # reduced sweep (CI-sized)
//	srumma-bench -all -json         # machine-readable results on stdout
//
// The chaos and kernel sweeps run on the real (goroutine) engine / real
// hardware with wall-clock timing, so they are not part of -all; invoke
// them explicitly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"srumma/internal/bench"
	"srumma/internal/ipcrt"
	"srumma/internal/machine"
)

func main() {
	ipcrt.MaybeWorker() // -engine ipc workers re-execute this binary
	log.SetFlags(0)
	log.SetPrefix("srumma-bench: ")
	fig := flag.Int("fig", 0, "figure number to regenerate (5..10)")
	table := flag.Int("table", 0, "table number to regenerate (1)")
	model := flag.Bool("model", false, "run the efficiency-model comparison")
	iso := flag.Bool("iso", false, "run the isoefficiency demonstration")
	ablations := flag.Bool("ablations", false, "run the SRUMMA design ablations")
	memory := flag.Bool("memory", false, "run the scratch-memory comparison")
	klapi := flag.Bool("klapi", false, "run the SP LAPI-vs-KLAPI zero-copy projection")
	blocksize := flag.Bool("blocksize", false, "run the task-granularity (block size) sweep")
	chaos := flag.Bool("chaos", false, "run the fault-injection chaos sweep on the real engine")
	kernel := flag.Bool("kernel", false, "run the local dgemm kernel sweep (seed vs packed vs parallel) on real hardware")
	kernelThreads := flag.Int("kernel-threads", 4, "worker count asked of the parallel kernel rows (capped at GOMAXPROCS)")
	kernelOut := flag.String("kernel-out", "", "also write the -kernel sweep document (BENCH_kernel.json schema) to this file, keeping its \"before\" rows")
	seed := flag.Uint64("seed", 1, "base seed for the chaos sweep (runs seed, seed+1, seed+2)")
	all := flag.Bool("all", false, "run everything")
	quick := flag.Bool("quick", false, "reduced sweeps (smaller N and P)")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of tables")
	hierSweep := flag.Bool("hier", false, "run the flat-vs-hierarchical P sweep on the virtual-time engine")
	hierOut := flag.String("hier-out", "", "also write the -hier sweep document (BENCH_hier.json schema) to this file")
	engine := flag.String("engine", "", `"ipc": run the multi-process engine bit-identity benchmark`)
	np := flag.Int("np", 4, "worker process count (with -engine ipc)")
	ppn := flag.Int("ppn", 2, "worker processes per emulated node (with -engine ipc)")
	ipcN := flag.Int("n", 0, "matrix size for -engine ipc (0: default)")
	flag.Parse()

	results := map[string]any{}
	ran := false
	run := func(name string, fn func() error) {
		ran = true
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	// emit prints the human table, or stores rows for the JSON document.
	emit := func(name string, rows any, table string) {
		if *jsonOut {
			results[name] = rows
			return
		}
		fmt.Print(table)
	}

	switch *engine {
	case "":
	case "ipc":
		ran = true
		ipcBenchMain(*np, *ppn, *ipcN, *quick, emit)
	default:
		log.Fatalf("unknown engine %q (only ipc runs through srumma-bench)", *engine)
	}

	if *all || *fig == 5 {
		run("fig5", func() error {
			n, procs := 2000, 16
			if *quick {
				n = 600
			}
			rows, err := bench.Fig5(n, procs)
			if err != nil {
				return err
			}
			emit("fig5", rows, bench.FormatFig5(rows))
			return nil
		})
	}
	if *all || *fig == 6 {
		run("fig6", func() error {
			series, order, err := bench.Fig6(commSizes(*quick))
			if err != nil {
				return err
			}
			emit("fig6", series, bench.FormatBandwidth("Figure 6: bandwidth comparison on Cray X1", series, order))
			return nil
		})
	}
	if *all || *fig == 7 {
		run("fig7", func() error {
			series, order, err := bench.Fig7(commSizes(*quick))
			if err != nil {
				return err
			}
			emit("fig7", series, bench.FormatOverlap("Figure 7: potential communication overlap, IBM SP and Linux cluster", series, order))
			return nil
		})
	}
	if *all || *fig == 8 {
		run("fig8", func() error {
			series, order, err := bench.Fig8(commSizes(*quick))
			if err != nil {
				return err
			}
			emit("fig8", series, bench.FormatBandwidth("Figure 8: MPI vs ARMCI_Get on IBM SP and Myrinet", series, order))
			return nil
		})
	}
	if *all || *fig == 9 {
		run("fig9", func() error {
			ns := []int{600, 1000, 2000, 4000}
			procs := 16
			if *quick {
				ns = []int{600, 1000}
				procs = 8
			}
			rows, err := bench.Fig9(ns, procs)
			if err != nil {
				return err
			}
			emit("fig9", rows, bench.FormatFig9(rows))
			return nil
		})
	}
	if *all || *fig == 10 {
		run("fig10", func() error {
			sweeps := bench.DefaultFig10Sweeps()
			if *quick {
				for i := range sweeps {
					sweeps[i].Ns = []int{600, 2000}
					sweeps[i].Procs = []int{16, 64}
				}
			}
			rows, err := bench.Fig10(sweeps)
			if err != nil {
				return err
			}
			emit("fig10", rows, bench.FormatFig10(rows))
			return nil
		})
	}
	if *all || *table == 1 {
		run("table1", func() error {
			rows, err := bench.Table1()
			if err != nil {
				return err
			}
			emit("table1", rows, bench.FormatTable1(rows))
			return nil
		})
	}
	if *all || *model {
		run("model", func() error {
			prof := machine.LinuxMyrinet()
			ns := []int{1000, 2000, 4000}
			ps := []int{4, 16, 64}
			if *quick {
				ns = []int{1000, 2000}
				ps = []int{4, 16}
			}
			rows, err := bench.ModelCompare(prof, ns, ps)
			if err != nil {
				return err
			}
			emit("model", rows, bench.FormatModel(prof, rows))
			return nil
		})
	}
	if *all || *iso {
		run("iso", func() error {
			prof := machine.LinuxMyrinet()
			base := 500
			ps := []int{4, 16, 64}
			rows, err := bench.Isoefficiency(prof, base, ps)
			if err != nil {
				return err
			}
			emit("iso", rows, bench.FormatIso(prof, base, rows))
			return nil
		})
	}
	if *all || *ablations {
		run("ablations", func() error {
			n, procs := 4000, 64
			if *quick {
				// Keep at least 4 SP nodes or every operand is local and
				// the ablations have nothing to ablate.
				n, procs = 1000, 64
			}
			rows, err := bench.Ablations(n, procs)
			if err != nil {
				return err
			}
			emit("ablations", rows, bench.FormatAblations(rows))
			return nil
		})
	}
	if *all || *memory {
		run("memory", func() error {
			n, procs := 4000, 64
			if *quick {
				n, procs = 1000, 16
			}
			rows, err := bench.MemoryTable(n, procs)
			if err != nil {
				return err
			}
			emit("memory", rows, bench.FormatMemory(n, procs, rows))
			return nil
		})
	}
	if *all || *klapi {
		run("klapi", func() error {
			ns := []int{1000, 2000, 4000, 8000}
			procs := 64
			if *quick {
				ns = []int{1000, 2000}
			}
			rows, err := bench.KLAPI(ns, procs)
			if err != nil {
				return err
			}
			emit("klapi", rows, bench.FormatKLAPI(rows))
			return nil
		})
	}
	if *all || *blocksize {
		run("blocksize", func() error {
			prof := machine.LinuxMyrinet()
			n, procs := 4000, 64
			if *quick {
				n, procs = 1000, 16
			}
			caps := []int{8, 16, 32, 64, 128, 256, 0}
			rows, err := bench.BlockSizeSweep(prof, n, procs, caps)
			if err != nil {
				return err
			}
			emit("blocksize", rows, bench.FormatBlockSize(prof, n, procs, rows))
			return nil
		})
	}
	if *chaos {
		run("chaos", func() error {
			n, procs, ppn := 96, 6, 2
			if *quick {
				n, procs, ppn = 48, 4, 2
			}
			seeds := []uint64{*seed, *seed + 1, *seed + 2}
			if *quick {
				seeds = seeds[:1]
			}
			rows, err := bench.Chaos(n, procs, ppn, seeds)
			if err != nil {
				return err
			}
			emit("chaos", rows, bench.FormatChaos(n, procs, rows))
			return nil
		})
	}
	if *hierSweep {
		run("hier", func() error {
			n, procsList := 512, []int{4, 16, 36, 64}
			if *quick {
				n, procsList = 256, []int{4, 16}
			}
			doc, err := bench.HierSweep(machine.LinuxMyrinet(), n, procsList)
			if err != nil {
				return err
			}
			emit("hier", doc, bench.FormatHier(doc))
			if *hierOut != "" {
				buf, err := json.MarshalIndent(map[string]any{"env": bench.CurrentEnv(), "hier_sweep": doc}, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*hierOut, append(buf, '\n'), 0o644); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if *kernel {
		run("kernel", func() error {
			// Whole-tile sizes and, beside each, a ragged (prime-ish) one.
			ns := []int{256, 511, 512, 1021, 1024}
			if *quick {
				ns = []int{255, 256}
			}
			doc := bench.KernelDoc{Env: bench.CurrentEnv(), Peak: bench.KernelPeaks(nil)}
			rows, err := bench.KernelSweep(ns, *kernelThreads)
			if err != nil {
				return err
			}
			e2e, err := bench.KernelEndToEnd(ns[len(ns)-1:])
			if err != nil {
				return err
			}
			doc.Kernel = append(rows, e2e...)
			doc.Peak = bench.KernelPeaks(doc.Peak)
			bench.PeakShares(doc.Kernel, doc.Peak)
			emit("kernel", doc, bench.FormatKernel(doc))
			if *kernelOut != "" {
				return bench.WriteKernelDoc(*kernelOut, doc)
			}
			return nil
		})
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	}
}

func commSizes(quick bool) []int {
	if quick {
		return []int{512, 16 << 10, 256 << 10, 1 << 20}
	}
	return bench.CommSizes
}
