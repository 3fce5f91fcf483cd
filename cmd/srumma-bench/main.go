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
//	srumma-bench -fig 10 -quick     # reduced sweep (CI-sized)
//	srumma-bench -all -json         # machine-readable results on stdout
//
// Nothing here touches real hardware or wall-clock time, so the output is
// the same bytes on every machine. Measurements of this machine come from
// the benchmark (benchmark/, BENCHMARK.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"srumma/internal/bench"
	"srumma/internal/machine"
)

// The flags live at package level so the drift test can walk flag.CommandLine.
var (
	fig       = flag.Int("fig", 0, "figure number to regenerate (5..10)")
	table     = flag.Int("table", 0, "table number to regenerate (1)")
	model     = flag.Bool("model", false, "run the efficiency-model comparison")
	iso       = flag.Bool("iso", false, "run the isoefficiency demonstration")
	ablations = flag.Bool("ablations", false, "run the SRUMMA design ablations")
	memory    = flag.Bool("memory", false, "run the scratch-memory comparison")
	klapi     = flag.Bool("klapi", false, "run the SP LAPI-vs-KLAPI zero-copy projection")
	blocksize = flag.Bool("blocksize", false, "run the task-granularity (block size) sweep")
	all       = flag.Bool("all", false, "run everything")
	quick     = flag.Bool("quick", false, "reduced sweeps (smaller N and P)")
	jsonOut   = flag.Bool("json", false, "emit one JSON document instead of tables")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srumma-bench: ")
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
