package bench

// One-sided conformance: rt.Ctx has one get, strided, and every engine and
// wrapper must give it the same meaning. One op table runs on the real
// engine and the virtual-time engine, bare and under the chaos stack with a
// plan that injects nothing, and on the real engine once more with every get
// a window get (rt.WindowGetter); what a get reads is held to the segments
// where there is memory, and a get leaves them as they were, the
// communication signature is held equal across all six, and a region the
// one check (rt.CheckRegion) refuses is refused by all six in its words.

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

// rmaOp is one transfer: rank by gets from owner's segment the rows x cols
// region at off with row stride ld. bad is the region check's complaint when
// the region must be refused.
type rmaOp struct {
	name                string
	by, owner           int
	off, ld, rows, cols int
	bad                 string
}

const confSeg = 24 // every rank's segment: a 4x6 block

func conformanceOps() (good, bad []rmaOp) {
	good = []rmaOp{
		{"strided remote", 0, 2, 7, 6, 3, 2, ""},
		{"strided same node", 0, 1, 1, 6, 2, 4, ""},
		{"one row", 3, 0, 3, 5, 1, 5, ""}, // ld == cols: goes through rt.Get
		{"one row of a wider matrix", 2, 1, 13, 6, 1, 4, ""},
		{"no rows", 1, 3, 2, 6, 0, 3, ""},
		{"no columns, row starts past the end", 1, 2, 2, 6, 9, 0, ""},
		{"ends at the segment end", 2, 0, 8, 6, 3, 4, ""},
	}
	bad = []rmaOp{
		{"one past the end", 2, 0, 9, 6, 3, 4, "region ends at 25 of 24"},
		{"negative offset", 0, 1, -1, 6, 2, 2, "malformed region 2x2 ld=6 off=-1"},
		{"ld < cols", 0, 3, 0, 3, 2, 4, "malformed region 2x4 ld=3 off=0"},
	}
	return good, bad
}

// issue performs op on c and returns what the get landed (nil on the
// size-only engine). With window, the get is c's window get, read where it
// lies.
func (op rmaOp) issue(c rt.Ctx, g rt.Global, window bool) []float64 {
	n := op.rows * op.cols
	if window {
		m, ok := c.(rt.WindowGetter).GetWindow(g, op.owner, op.off, op.ld, op.rows, op.cols)
		if !ok {
			panic("window get refused")
		}
		var got []float64
		for r := 0; r < m.Rows && m.Cols > 0; r++ {
			got = append(got, c.ReadBuf(m.Buf, m.Off+r*m.LD, m.Cols)...)
		}
		return got
	}
	buf := c.LocalBuf(n)
	if op.rows == 1 && op.ld == op.cols {
		rt.Get(c, g, op.owner, op.off, n, buf, 0)
	} else {
		c.Wait(c.NbGetSub(g, op.owner, op.off, op.ld, op.rows, op.cols, buf, 0))
	}
	return c.ReadBuf(buf, 0, n)
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
	inject := func(c rt.Ctx) rt.Ctx { return faults.Inject(c, plan, nil) }
	engines := []struct {
		name   string
		data   bool // moves real data
		window bool // gets are window gets
		run    func(func(rt.Ctx)) ([]*rt.Stats, error)
	}{
		{"armci", true, false, real(bare)},
		{"armci under Inject", true, false, real(inject)},
		{"armci window gets", true, true, real(bare)},
		// The injector forwards the engine's window get.
		{"armci window gets under Inject", true, true, real(inject)},
		{"simrt", false, false, sim(bare)},
		// The injector, with nothing to inject, passes the engine's handles
		// through and can sit on either engine.
		{"simrt under Inject", false, false, sim(inject)},
	}
	good, bad := conformanceOps()

	// The reference: each region read out of the initial segments.
	wantGot := make([][]float64, len(good))
	for i, op := range good {
		seg := segInit(op.owner)
		for r := 0; r < op.rows && op.cols > 0; r++ {
			wantGot[i] = append(wantGot[i], seg[op.off+r*op.ld:op.off+r*op.ld+op.cols]...)
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
					got[i] = op.issue(c, g, e.window)
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
				if !slices.Equal(mem[r], segInit(r)) {
					t.Errorf("%s: rank %d's segment\n got  %v\n want %v", e.name, r, mem[r], segInit(r))
				}
			}
			for i, op := range good {
				if !slices.Equal(got[i], wantGot[i]) {
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
					op.issue(c, g, e.window)
				}
			})
			if what := fmt.Sprintf("%s: %q", e.name, op.name); err == nil {
				t.Errorf("%s was accepted", what)
			} else if !strings.Contains(err.Error(), op.bad) {
				t.Errorf("%s: refused with %q, want the region check's %q", what, err, op.bad)
			}
		}
	}
	if first.BytesRemote == 0 || first.BytesShared == 0 {
		t.Fatalf("the table exercises no remote or shared traffic: %+v", first)
	}
}
