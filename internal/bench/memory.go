package bench

// Memory-footprint comparison: the paper calls SRUMMA "more general, memory
// efficient" than its competitors. This table measures each algorithm's
// scratch allocation (communication buffers, panels, redistribution
// staging) per rank, beyond the distributed operands themselves. The
// interesting contrast is the transposed cases, where the pdgemm/SUMMA
// baselines materialize a full redistributed copy of the transposed operand
// while SRUMMA's task planner absorbs the transpose for free.

import (
	"fmt"
	"strings"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

// MemoryRow reports one algorithm's average per-rank scratch footprint.
type MemoryRow struct {
	Alg             string
	Case            core.Case
	ScratchPerRank  int64 // bytes of LocalBuf scratch, averaged over ranks
	OperandsPerRank int64 // bytes of the rank's A+B+C blocks, for scale
}

// MemoryTable measures scratch usage for an N x N x N multiply on `procs`
// ranks of the Linux cluster model, for C=AB and C=AtBt.
func MemoryTable(n, procs int) ([]MemoryRow, error) {
	prof := machine.LinuxMyrinet()
	operand := int64(3*n*n/procs) * 8
	var rows []MemoryRow
	for _, cs := range []core.Case{core.NN, core.TT} {
		for _, alg := range []string{algs.SRUMMA, algs.SUMMA, algs.Pdgemm, algs.Cannon} {
			if alg == algs.Cannon && cs != core.NN {
				continue
			}
			res, err := RunMatmul(MatmulConfig{
				Platform: prof,
				Procs:    procs,
				Dims:     core.Dims{M: n, N: n, K: n},
				Case:     cs,
				Alg:      alg,
			})
			if err != nil {
				return nil, fmt.Errorf("memory %s/%v: %w", alg, cs, err)
			}
			rows = append(rows, MemoryRow{
				Alg:             alg,
				Case:            cs,
				ScratchPerRank:  res.Stats.ScratchBytes / int64(procs),
				OperandsPerRank: operand,
			})
		}
	}
	return rows, nil
}

// FormatMemory renders the scratch-memory table.
func FormatMemory(n, procs int, rows []MemoryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scratch memory per rank, N=%d on %d procs (operands: %.2f MB/rank)\n",
		n, procs, float64(rows[0].OperandsPerRank)/1e6)
	fmt.Fprintf(&b, "%-10s %-8s %14s %10s\n", "algorithm", "case", "scratch MB", "vs operands")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %14.3f %9.1f%%\n",
			r.Alg, r.Case, float64(r.ScratchPerRank)/1e6,
			100*float64(r.ScratchPerRank)/float64(r.OperandsPerRank))
	}
	return b.String()
}

// BlockSizeRow is one point of the task-granularity sweep: SRUMMA's
// throughput and scratch memory as a function of the MaxTaskK cap.
type BlockSizeRow struct {
	MaxTaskK       int // 0 = whole owner blocks
	GFLOPS         float64
	ScratchPerRank int64
}

// BlockSizeSweep measures SRUMMA across task-granularity caps — the
// empirical block-size tuning the paper performed for every configuration.
func BlockSizeSweep(prof machine.Profile, n, procs int, caps []int) ([]BlockSizeRow, error) {
	var rows []BlockSizeRow
	for _, k := range caps {
		res, err := RunMatmul(MatmulConfig{
			Platform: prof,
			Procs:    procs,
			Dims:     core.Dims{M: n, N: n, K: n},
			Alg:      algs.SRUMMA,
			MaxTaskK: k,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BlockSizeRow{
			MaxTaskK:       k,
			GFLOPS:         res.GFLOPS,
			ScratchPerRank: res.Stats.ScratchBytes / int64(procs),
		})
	}
	return rows, nil
}

// FormatBlockSize renders the sweep.
func FormatBlockSize(prof machine.Profile, n, procs int, rows []BlockSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Task-granularity sweep on %s, N=%d, %d procs\n", prof.Name, n, procs)
	fmt.Fprintf(&b, "%10s %12s %14s\n", "maxTaskK", "GFLOP/s", "scratch KB")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.MaxTaskK)
		if r.MaxTaskK == 0 {
			label = "full"
		}
		fmt.Fprintf(&b, "%10s %12.1f %14.1f\n", label, r.GFLOPS, float64(r.ScratchPerRank)/1e3)
	}
	return b.String()
}
