package job

import (
	"sync"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// TestRunPlacements runs one inline-operand spec with alpha and beta both
// ways the body places a result — computed in place in spec.Out, as a
// team runs it, and allocated and read back, as a worker does — flat and
// two-level. Every run matches the serial reference within 1e-10·K, and
// the two placements agree bit for bit.
func TestRunPlacements(t *testing.T) {
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: 23, N: 17, K: 29}
	a, b, c0 := mat.Random(d.K, d.M, 1), mat.Random(d.K, d.N, 2), mat.Random(d.M, d.N, 3) // TN: A stored K x M
	want := c0.Clone()
	if err := mat.GemmNaive(true, false, -1.5, a, b, 0.25, want); err != nil {
		t.Fatal(err)
	}
	for _, hierOn := range []bool{false, true} {
		var results []*mat.Matrix
		for _, inPlace := range []bool{true, false} {
			spec := &ipcrt.JobSpec{M: d.M, N: d.N, K: d.K, Case: int(core.TN), Alpha: -1.5, Beta: 0.25,
				Data: true, A: a.Data, B: b.Data, CIn: c0.Data, Hier: hierOn, ExitRank: -1, HangRank: -1}
			if inPlace {
				spec.Out = mat.New(d.M, d.N)
			}
			blocks := make([]*mat.Matrix, topo.NProcs)
			var mu sync.Mutex
			var runErr error
			if _, err := armci.Run(topo, func(c rt.Ctx) {
				blk, err := Run(c, spec, nil)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && runErr == nil {
					runErr = err
				}
				blocks[c.Rank()] = blk
			}); err != nil || runErr != nil {
				t.Fatalf("hier=%v in-place=%v: %v, %v", hierOn, inPlace, err, runErr)
			}
			got := spec.Out
			if !inPlace {
				if got, err = grid.NewBlockDist(g, d.M, d.N).Gather(blocks); err != nil {
					t.Fatal(err)
				}
			}
			if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
				t.Errorf("hier=%v in-place=%v: max |diff| %g against the serial reference", hierOn, inPlace, diff)
			}
			results = append(results, got)
		}
		if !mat.Equal(results[0], results[1]) {
			t.Errorf("hier=%v: the in-place and the allocated result differ", hierOn)
		}
	}
}
