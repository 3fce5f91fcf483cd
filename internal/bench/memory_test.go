package bench

import (
	"testing"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

func machineLinux() machine.Profile { return machine.LinuxMyrinet() }

func TestMemoryTableShape(t *testing.T) {
	rows, err := MemoryTable(2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	get := func(alg string, cs core.Case) int64 {
		for _, r := range rows {
			if r.Alg == alg && r.Case == cs {
				return r.ScratchPerRank
			}
		}
		t.Fatalf("row %s/%v missing", alg, cs)
		return 0
	}
	// SRUMMA's footprint must not grow on transposed cases — its planner
	// absorbs the transpose.
	if nn, tt := get(algs.SRUMMA, core.NN), get(algs.SRUMMA, core.TT); tt > nn*11/10 {
		t.Errorf("SRUMMA scratch grows on TT: %d -> %d", nn, tt)
	}
	// The pdgemm baseline pays a redistributed copy of both transposed
	// operands: TT must cost it far more scratch than NN.
	if nn, tt := get(algs.Pdgemm, core.NN), get(algs.Pdgemm, core.TT); tt < nn*3 {
		t.Errorf("pdgemm TT scratch %d should dwarf NN %d (transpose staging)", tt, nn)
	}
	// On TT, SRUMMA must be no hungrier than the baselines.
	if sr, pd := get(algs.SRUMMA, core.TT), get(algs.Pdgemm, core.TT); sr > pd {
		t.Errorf("SRUMMA TT scratch %d exceeds pdgemm %d", sr, pd)
	}
	// Everyone's scratch stays bounded by a small multiple of the operands.
	for _, r := range rows {
		if r.ScratchPerRank > 4*r.OperandsPerRank {
			t.Errorf("%s/%v scratch %d too large vs operands %d", r.Alg, r.Case, r.ScratchPerRank, r.OperandsPerRank)
		}
	}
}

func TestBlockSizeSweepShape(t *testing.T) {
	rows, err := BlockSizeSweep(machineLinux(), 2000, 16, []int{8, 64, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Scratch grows strictly with the cap; tiny caps cost throughput.
	if rows[0].ScratchPerRank >= rows[1].ScratchPerRank || rows[1].ScratchPerRank >= rows[2].ScratchPerRank {
		t.Errorf("scratch not increasing: %+v", rows)
	}
	if rows[0].GFLOPS >= rows[2].GFLOPS {
		t.Errorf("cap=8 (%.1f GF) should trail full blocks (%.1f GF)", rows[0].GFLOPS, rows[2].GFLOPS)
	}
}
