package core

// The executor's in-place capability (inPlacer), against a ctx that
// holds copies of some of a rank's fetch regions the way internal/hier's
// group band does: under FlavorDirect a held region is multiplied from
// where it lies — not fetched, no scratch taken for it — and under
// FlavorCopy the executor does not ask. Either way C is the plain run's.

import (
	"fmt"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

type heldKey struct {
	g                          rt.Global
	owner, off, ld, rows, cols int
}

// holder is a rank's ctx with a side buffer of fetch regions copied tight,
// exposed through InPlace; it counts what the executor asks of it.
type holder struct {
	rt.Ctx
	buf                   rt.Buffer
	at                    map[heldKey]int
	asked, gets, heldGets int
	granted               int
}

func (h *holder) Unwrap() rt.Ctx { return h.Ctx }

func (h *holder) InPlace(g rt.Global, rank, off, ld, rows, cols int) (rt.Mat, bool) {
	h.asked++
	o, ok := h.at[heldKey{g, rank, off, ld, rows, cols}]
	return rt.Mat{Buf: h.buf, Off: o, LD: cols, Rows: rows, Cols: cols}, ok
}

func (h *holder) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	h.gets++
	if _, ok := h.at[heldKey{g, rank, off, ld, rows, cols}]; ok {
		h.heldGets++
	}
	return h.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
}

func (h *holder) LocalBuf(elems int) rt.Buffer {
	h.granted++
	return h.Ctx.LocalBuf(elems)
}

// hold copies every keep-th fetch item of this rank's flat schedules into
// the side buffer.
func hold(c rt.Ctx, g *grid.Grid, d Dims, opts Options, ga, gb rt.Global, keep int) *holder {
	tasks := Plan(c.Topo(), c.Rank(), g, d, opts)
	_, sa, sb := fetchSchedules(tasks, opts.SingleBuffer, ga, gb, nil)
	h := &holder{Ctx: c, at: make(map[heldKey]int)}
	type src struct {
		g  rt.Global
		it fetchItem
	}
	var held []src
	elems := 0
	for i, it := range sa.items {
		if i%keep == 0 {
			held = append(held, src{ga, it})
			elems += it.elems()
		}
	}
	for i, it := range sb.items {
		if (i+1)%keep == 0 {
			held = append(held, src{gb, it})
			elems += it.elems()
		}
	}
	h.buf = c.LocalBuf(elems)
	off := 0
	for _, s := range held {
		it := s.it
		c.Wait(c.NbGetSub(s.g, it.owner, it.off, it.ld, it.rows, it.cols, h.buf, off))
		h.at[heldKey{s.g, it.owner, it.off, it.ld, it.rows, it.cols}] = off
		off += it.elems()
	}
	return h
}

func TestExecutorMultipliesHeldRegionsInPlace(t *testing.T) {
	g, err := grid.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo := rt.Topology{NProcs: 6, ProcsPerNode: 2}
	d := Dims{M: 37, N: 29, K: 41}
	for _, cs := range Cases {
		for _, fl := range []Flavor{FlavorDirect, FlavorCopy} {
			for _, single := range []bool{false, true} {
				for _, keep := range []int{1, 2} { // hold everything / every other item
					opts := Options{Case: cs, Flavor: fl, SingleBuffer: single, MaxTaskK: 9}
					label := fmt.Sprintf("%v flavour %d single=%v keep=1/%d", cs, fl, single, keep)
					da, db, dc := Dists(g, d, cs)
					a, b := mat.Random(da.Rows, da.Cols+2, 1).View(0, 1, da.Rows, da.Cols), mat.Random(db.Rows, db.Cols, 2)
					plain, inPlace := mat.New(d.M, d.N), mat.New(d.M, d.N)
					_, err := armci.Run(topo, func(c rt.Ctx) {
						ga, gb := driver.Bind(c, da, a), driver.Bind(c, db, b)
						if err := Multiply(c, g, d, opts, ga, gb, driver.Bind(c, dc, plain)); err != nil {
							panic(err)
						}
						h := hold(c, g, d, opts, ga, gb, keep)
						h.granted = 0
						if err := Multiply(h, g, d, opts, ga, gb, driver.Bind(c, dc, inPlace)); err != nil {
							panic(err)
						}
						switch {
						case fl == FlavorCopy && h.asked != 0:
							t.Errorf("%s: rank %d asked InPlace %d times under FlavorCopy", label, c.Rank(), h.asked)
						case fl == FlavorDirect && h.heldGets != 0:
							t.Errorf("%s: rank %d fetched %d regions it holds in place", label, c.Rank(), h.heldGets)
						case fl == FlavorDirect && keep == 1 && (h.gets != 0 || h.granted != 0):
							t.Errorf("%s: rank %d holds every region and still issued %d gets, took %d buffers", label, c.Rank(), h.gets, h.granted)
						case fl == FlavorDirect && len(h.at) > 0 && h.asked == 0:
							t.Errorf("%s: rank %d never asked", label, c.Rank())
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if !mat.Equal(plain, inPlace) {
						t.Errorf("%s: result differs from the plain run", label)
					}
				}
			}
		}
	}
}
