package algs_test

import (
	"fmt"
	"testing"

	"srumma/internal/algs"
	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// TestScaledRows holds the serving options to the table. A baseline asked
// for anything but the plain product is refused by Resolve, with one text,
// before any rank runs. The SRUMMA row, flat and two-level, computes
// C = 2·op(A)·op(B) + 0.5·C in every transpose case, within 1e-10·K of the
// serial reference, whether the result is bound where it lies or allocated,
// loaded and read back.
func TestScaledRows(t *testing.T) {
	g := must(grid.Square(4))
	d := core.Dims{M: 30, N: 26, K: 22}
	for _, name := range algs.Names[1:] {
		for _, sc := range []algs.Scale{{Alpha: 2}, {Alpha: 1, Beta: 0.5}} {
			_, err := algs.Resolve(name, g, d, algs.Options{NB: 4, Scale: &sc})
			if want := fmt.Sprintf("srumma: %s supports alpha 1, beta 0 only", name); err == nil || err.Error() != want {
				t.Errorf("%s with %+v: err = %v, want %q", name, sc, err, want)
			}
		}
		if _, err := algs.Resolve(name, g, d, algs.Options{NB: 4, Scale: &algs.Scale{Alpha: 1}}); err != nil {
			t.Errorf("%s with the plain product spelled out: %v", name, err)
		}
	}

	topo := rt.Topology{NProcs: 8, ProcsPerNode: 4} // one 2x2 group per domain: hier stages
	g = must(grid.Square(topo.NProcs))
	for _, cs := range core.Cases {
		ar, ac, br, bc := d.M, d.K, d.K, d.N
		if cs.TransA() {
			ar, ac = ac, ar
		}
		if cs.TransB() {
			br, bc = bc, br
		}
		a, b, c0 := mat.Random(ar, ac, 1), mat.Random(br, bc, 2), mat.Random(d.M, d.N, 3)
		want := c0.Clone()
		if err := mat.GemmNaive(cs.TransA(), cs.TransB(), 2, a, b, 0.5, want); err != nil {
			t.Fatal(err)
		}
		for _, hierOn := range []bool{false, true} {
			for _, inPlace := range []bool{true, false} {
				label := fmt.Sprintf("%v hier=%v in-place=%v", cs, hierOn, inPlace)
				row, err := algs.Resolve(algs.SRUMMA, g, d, algs.Options{
					Options: core.Options{Case: cs},
					Scale:   &algs.Scale{Alpha: 2, Beta: 0.5},
					Hier:    hierOn,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var out *mat.Matrix
				if inPlace {
					out = c0.Clone()
				}
				blocks := make([]*mat.Matrix, topo.NProcs)
				errs := make([]error, topo.NProcs)
				stats, err := armci.Run(topo, func(c rt.Ctx) {
					ga, gb, gc := row.Place(c, a, b, out)
					if out == nil {
						row.LoadC(c, gc, c0)
					}
					errs[c.Rank()] = row.Multiply(c, ga, gb, gc)
					if out == nil {
						blocks[c.Rank()] = row.ReadBack(c, gc)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var staged int64
				for _, s := range stats {
					staged += s.HierStagedBytes
				}
				if hierOn != (staged > 0) {
					t.Fatalf("%s: %d bytes staged by the group", label, staged)
				}
				for _, err := range errs {
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				got, err := row.Gather(out, blocks)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(d.K) {
					t.Errorf("%s: max |diff| %g against the serial reference", label, diff)
				}
			}
		}
	}
}

func must(g *grid.Grid, err error) *grid.Grid {
	if err != nil {
		panic(err)
	}
	return g
}
