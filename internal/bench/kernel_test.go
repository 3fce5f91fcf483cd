package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"srumma/internal/mat"
)

// TestGemmBlockedMatchesNaive keeps the seed kernel honest — it is the
// measured baseline for the packed kernel, so it has to stay correct.
func TestGemmBlockedMatchesNaive(t *testing.T) {
	for _, cs := range kernelCases {
		const m, n, k = 70, 61, 53
		a, b := mat.Random(m, k, 1), mat.Random(k, n, 2)
		if cs.transA {
			a = a.Transpose()
		}
		if cs.transB {
			b = b.Transpose()
		}
		c1 := mat.Random(m, n, 3)
		c2 := c1.Clone()
		gemmBlocked(cs.transA, cs.transB, 0.5, a, b, c1)
		if err := mat.GemmNaive(cs.transA, cs.transB, 0.5, a, b, 1, c2); err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(c1, c2); d > 1e-10 {
			t.Fatalf("%s: seed kernel diff %g", cs.name, d)
		}
	}
}

// TestKernelSweepArms: the parallel arm carries the thread count
// GemmParallel really uses, and is absent when that is one.
func TestKernelSweepArms(t *testing.T) {
	arms := func(threads int) map[string]bool {
		rows, err := KernelSweep([]int{24}, threads)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range rows {
			seen[r.Kernel] = true
		}
		if len(rows) != 4*len(seen) {
			t.Errorf("threads=%d: %d rows for %d arms, want four cases each", threads, len(rows), len(seen))
		}
		PeakShares(rows, []KernelPeak{{Probe: "p", OneThread: 1, AllThreads: 2}})
		for _, r := range rows {
			want := map[string]float64{"seed": 0, "packed": r.GFLOPS}[r.Kernel]
			if r.threads > 1 {
				want = r.GFLOPS / 2
			}
			if r.PeakShare != want {
				t.Errorf("%s: share of peak %g, want %g", r.Kernel, r.PeakShare, want)
			}
		}
		return seen
	}
	if got := arms(1); len(got) != 2 || !got["seed"] || !got["packed"] {
		t.Errorf("one thread: arms %v, want seed and packed only", got)
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if got := arms(procs + 3); !got[fmt.Sprintf("parallel%d", procs)] {
			t.Errorf("%d threads asked on GOMAXPROCS=%d: arms %v", procs+3, procs, got)
		}
	}
}

// TestWriteKernelDocKeepsBefore: the first rewrite of a record turns the
// old rows into "before"; later rewrites keep that "before".
func TestWriteKernelDocKeepsBefore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	read := func() KernelDoc {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc KernelDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	row := func(g float64) []KernelRow { return []KernelRow{{Kernel: "packed", Case: "NN", N: 8, GFLOPS: g}} }
	// The pre-environment schema: rows only.
	if err := os.WriteFile(path, []byte(`{"kernel":[{"Kernel":"packed","Case":"NN","N":8,"GFLOPS":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, g := range []float64{2, 3} {
		if err := WriteKernelDoc(path, KernelDoc{Env: Env{Commit: "c"}, Kernel: row(g)}); err != nil {
			t.Fatal(err)
		}
		doc := read()
		if doc.Kernel[0].GFLOPS != g || doc.Before == nil || doc.Before.Kernel[0].GFLOPS != 1 || doc.Before.Before != nil {
			t.Fatalf("after writing %g: %+v (before %+v)", g, doc.Kernel, doc.Before)
		}
	}
}
