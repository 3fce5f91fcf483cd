package bench

// One-sided conformance: rt.Ctx has one get and one put, both strided, and
// every engine and wrapper must give them the same meaning. One op table
// runs on the real engine and the virtual-time engine, bare and under the
// chaos stack with a plan that injects nothing; final memory is held to a
// sequential reference where there is memory, the communication signature
// is held equal across all four, and a region the one check (rt.CheckRegion)
// refuses is refused by all four in its words.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/faults"
	"srumma/internal/machine"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

// rmaOp is one transfer: rank by gets from / puts to owner's segment the
// rows x cols region at off with row stride ld. bad is the region check's
// complaint when the region must be refused.
type rmaOp struct {
	name                string
	put                 bool
	by, owner           int
	off, ld, rows, cols int
	bad                 string
}

const confSeg = 24 // every rank's segment: a 4x6 block

func conformanceOps() (good, bad []rmaOp) {
	for _, put := range []bool{false, true} {
		good = append(good,
			rmaOp{"strided remote", put, 0, 2, 7, 6, 3, 2, ""},
			rmaOp{"strided same node", put, 0, 1, 1, 6, 2, 4, ""},
			rmaOp{"one row", put, 3, 0, 3, 5, 1, 5, ""}, // ld == cols: goes through rt.Get / rt.Put
			rmaOp{"one row of a wider matrix", put, 2, 1, 13, 6, 1, 4, ""},
			rmaOp{"no rows", put, 1, 3, 2, 6, 0, 3, ""},
			rmaOp{"no columns, row starts past the end", put, 1, 2, 2, 6, 9, 0, ""},
			rmaOp{"ends at the segment end", put, 2, 0, 8, 6, 3, 4, ""},
		)
		bad = append(bad,
			rmaOp{"one past the end", put, 2, 0, 9, 6, 3, 4, "region ends at 25 of 24"},
			rmaOp{"negative offset", put, 0, 1, -1, 6, 2, 2, "malformed region 2x2 ld=6 off=-1"},
			rmaOp{"ld < cols", put, 0, 3, 0, 3, 2, 4, "malformed region 2x4 ld=3 off=0"},
		)
	}
	return good, bad
}

// issue performs op on c and returns what a get landed (nil on the
// size-only engine). A put's payload is 1000*(i+1) + element index.
func (op rmaOp) issue(c rt.Ctx, i int, g rt.Global) []float64 {
	n := op.rows * op.cols
	buf := c.LocalBuf(n)
	if op.put {
		c.WriteBuf(buf, 0, putPayload(i, n))
	}
	switch contiguous := op.rows == 1 && op.ld == op.cols; {
	case op.put && contiguous:
		rt.Put(c, buf, 0, n, g, op.owner, op.off)
	case op.put:
		c.Wait(c.NbPutSub(buf, 0, g, op.owner, op.off, op.ld, op.rows, op.cols))
	case contiguous:
		rt.Get(c, g, op.owner, op.off, n, buf, 0)
	default:
		c.Wait(c.NbGetSub(g, op.owner, op.off, op.ld, op.rows, op.cols, buf, 0))
	}
	return c.ReadBuf(buf, 0, n)
}

func putPayload(i, n int) []float64 {
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = float64(1000*(i+1) + k)
	}
	return vals
}

func segInit(rank int) []float64 {
	vals := make([]float64, confSeg)
	for k := range vals {
		vals[k] = float64(100*rank + k)
	}
	return vals
}

func TestOneSidedConformance(t *testing.T) {
	prof := machine.LinuxMyrinet() // ppn=2: rank 0 shares a node with 1, not with 2 or 3
	topo := rt.Topology{NProcs: 4, ProcsPerNode: prof.ProcsPerNode}
	plan, err := faults.NewPlan(faults.Config{Seed: 1}, topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	sim := func(wrap func(rt.Ctx) rt.Ctx) func(func(rt.Ctx)) ([]*rt.Stats, error) {
		return func(body func(rt.Ctx)) ([]*rt.Stats, error) {
			res, err := simrt.Run(prof, topo.NProcs, func(c rt.Ctx) { body(wrap(c)) })
			return res.Stats, err
		}
	}
	real := func(wrap func(rt.Ctx) rt.Ctx) func(func(rt.Ctx)) ([]*rt.Stats, error) {
		return func(body func(rt.Ctx)) ([]*rt.Stats, error) {
			return armci.Run(topo, func(c rt.Ctx) { body(wrap(c)) })
		}
	}
	bare := func(c rt.Ctx) rt.Ctx { return c }
	engines := []struct {
		name string
		data bool // moves real data
		run  func(func(rt.Ctx)) ([]*rt.Stats, error)
	}{
		{"armci", true, real(bare)},
		{"armci under Inject", true, real(func(c rt.Ctx) rt.Ctx { return faults.Inject(c, plan, nil) })},
		{"simrt", false, sim(bare)},
		// The injector, with nothing to inject, passes the engine's handles
		// through and can sit on either engine.
		{"simrt under Inject", false, sim(func(c rt.Ctx) rt.Ctx { return faults.Inject(c, plan, nil) })},
	}
	good, bad := conformanceOps()

	// The sequential reference: the ops applied one after another to plain
	// slices.
	wantMem := make([][]float64, topo.NProcs)
	for r := range wantMem {
		wantMem[r] = segInit(r)
	}
	wantGot := make([][]float64, len(good))
	for i, op := range good {
		seg, payload := wantMem[op.owner], putPayload(i, op.rows*op.cols)
		for r := 0; r < op.rows && op.cols > 0; r++ {
			row := seg[op.off+r*op.ld : op.off+r*op.ld+op.cols]
			if op.put {
				copy(row, payload[r*op.cols:])
			} else {
				wantGot[i] = append(wantGot[i], row...)
			}
		}
	}

	var first commSignature
	for ei, e := range engines {
		mem := make([][]float64, topo.NProcs)
		got := make([][]float64, len(good))
		stats, err := e.run(func(c rt.Ctx) {
			g := c.Malloc(confSeg)
			c.WriteBuf(c.Local(g), 0, segInit(c.Rank()))
			c.Barrier()
			for i, op := range good {
				if c.Rank() == op.by {
					got[i] = op.issue(c, i, g)
				}
				c.Barrier()
			}
			mem[c.Rank()] = c.ReadBuf(c.Local(g), 0, confSeg)
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if e.data {
			for r := range mem {
				if !slices.Equal(mem[r], wantMem[r]) {
					t.Errorf("%s: rank %d's segment\n got  %v\n want %v", e.name, r, mem[r], wantMem[r])
				}
			}
			for i, op := range good {
				if !op.put && !slices.Equal(got[i], wantGot[i]) {
					t.Errorf("%s: get %q landed %v, want %v", e.name, op.name, got[i], wantGot[i])
				}
			}
		}
		if sig := signature(stats); ei == 0 {
			first = sig
		} else if sig != first {
			t.Errorf("%s disagrees with %s on communication:\n %+v\n %+v", e.name, engines[0].name, sig, first)
		}

		for _, op := range bad {
			_, err := e.run(func(c rt.Ctx) {
				g := c.Malloc(confSeg)
				if c.Rank() == op.by {
					op.issue(c, 0, g)
				}
			})
			if what := fmt.Sprintf("%s: %q (put=%v)", e.name, op.name, op.put); err == nil {
				t.Errorf("%s was accepted", what)
			} else if !strings.Contains(err.Error(), op.bad) {
				t.Errorf("%s: refused with %q, want the region check's %q", what, err, op.bad)
			}
		}
	}
	if first.BytesRemote == 0 || first.BytesShared == 0 || first.Puts == 0 {
		t.Fatalf("the table exercises no remote, shared or put traffic: %+v", first)
	}
}
