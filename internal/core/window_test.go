package core

// The executor's two forms of a cross-domain get: the engine's window
// (rt.WindowGetter, asked under FlavorDirect on the ctx the executor is
// handed) and the copy into a scratch slot, which is what runs behind a
// wrapper that does not forward windows. Both book one get per schedule
// item by the same rule, so the communication signature is the same, and
// Gemm reads the same values, so C is the same bits.

import (
	"fmt"
	"math"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// windowRun multiplies on a p x q grid of the real engine, ppn ranks per
// node, each rank's ctx passed through wrap, operands adopted as views of
// wider matrices or loaded into tight segments. It returns C and the
// per-rank stats.
func windowRun(t *testing.T, p, q, ppn int, d Dims, opts Options, adopt bool, wrap func(rt.Ctx) rt.Ctx) (*mat.Matrix, []*rt.Stats) {
	t.Helper()
	g, err := grid.New(p, q)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, d, opts.Case)
	a := mat.Random(da.Rows+1, da.Cols+3, 5).View(1, 2, da.Rows, da.Cols)
	b := mat.Random(db.Rows, db.Cols, 6)
	co := driver.NewCollect(g.Size())
	stats, err := armci.Run(rt.Topology{NProcs: g.Size(), ProcsPerNode: ppn}, func(raw rt.Ctx) {
		c := wrap(raw)
		var ga, gb rt.Global
		if adopt {
			ga, gb = driver.Bind(raw, da, a), driver.Bind(raw, db, b)
		} else {
			ga, gb = driver.AllocBlock(raw, da), driver.AllocBlock(raw, db)
			driver.LoadBlock(raw, da, ga, a)
			driver.LoadBlock(raw, db, gb, b)
		}
		gc := driver.AllocBlock(raw, dc)
		if err := Multiply(c, g, d, opts, ga, gb, gc); err != nil {
			panic(err)
		}
		co.Deposit(raw, driver.StoreBlock(raw, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dc.Gather(co.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// TestWindowGetsBookLikeCopies: at prime dims, in every transpose case, on
// a p != q grid where fetched blocks are reused from both slots, with and
// without MaxTaskK splitting, single and double buffered, over tight and
// adopted operands, every rank books the same gets and bytes by class
// through windows as through copies, takes no scratch for them, and C is
// the same bits.
func TestWindowGetsBookLikeCopies(t *testing.T) {
	d := Dims{M: 37, N: 29, K: 41}
	hide := func(c rt.Ctx) rt.Ctx { return &releaseSpy{Ctx: c} }
	bare := func(c rt.Ctx) rt.Ctx { return c }
	for _, cs := range Cases {
		for _, ppn := range []int{1, 2} {
			for _, maxK := range []int{0, 7} {
				for _, single := range []bool{false, true} {
					for _, adopt := range []bool{false, true} {
						opts := Options{Case: cs, MaxTaskK: maxK, SingleBuffer: single}
						label := fmt.Sprintf("%v ppn=%d maxK=%d single=%v adopt=%v", cs, ppn, maxK, single, adopt)
						windowed, ws := windowRun(t, 2, 3, ppn, d, opts, adopt, bare)
						copied, cst := windowRun(t, 2, 3, ppn, d, opts, adopt, hide)
						var gets int64
						for r := range ws {
							w, c := ws[r], cst[r]
							if w.GetsShared != c.GetsShared || w.GetsRemote != c.GetsRemote ||
								w.BytesShared != c.BytesShared || w.BytesRemote != c.BytesRemote {
								t.Errorf("%s: rank %d windows book gets %d/%d bytes %d/%d (shared/remote), copies %d/%d bytes %d/%d",
									label, r, w.GetsShared, w.GetsRemote, w.BytesShared, w.BytesRemote,
									c.GetsShared, c.GetsRemote, c.BytesShared, c.BytesRemote)
							}
							if w.ScratchBytes != 0 {
								t.Errorf("%s: rank %d took %d B of scratch reading through windows", label, r, w.ScratchBytes)
							}
							if c.GetsRemote > 0 && c.ScratchBytes == 0 {
								t.Errorf("%s: rank %d copied %d gets into no scratch: the copy form did not run", label, r, c.GetsRemote)
							}
							gets += w.GetsRemote
						}
						if gets == 0 {
							t.Fatalf("%s: no cross-domain gets; the comparison is vacuous", label)
						}
						for i := range windowed.Data {
							if math.Float64bits(windowed.Data[i]) != math.Float64bits(copied.Data[i]) {
								t.Fatalf("%s: C[%d] = %v through windows, %v through copies", label, i, windowed.Data[i], copied.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestOneFetchTakesOneBuffer: a pipe takes as many scratch buffers as its
// schedule can fill. On a 1 x 2 grid every rank fetches one block of A and
// none of B, so the copy form takes exactly one buffer — double buffering
// or not — and the window form none.
func TestOneFetchTakesOneBuffer(t *testing.T) {
	d := Dims{M: 13, N: 11, K: 17}
	g, err := grid.New(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, single := range []bool{false, true} {
		for _, fl := range []Flavor{FlavorDirect, FlavorCopy} {
			for _, hidden := range []bool{false, true} {
				label := fmt.Sprintf("single=%v flavor=%d hidden=%v", single, fl, hidden)
				opts := Options{Flavor: fl, SingleBuffer: single}
				spies := make([]*releaseSpy, 2)
				_, stats := windowRun(t, 1, 2, 1, d, opts, false, func(c rt.Ctx) rt.Ctx {
					if !hidden {
						return c
					}
					spies[c.Rank()] = &releaseSpy{Ctx: c}
					return spies[c.Rank()]
				})
				for r, st := range stats {
					tasks := Plan(rt.Topology{NProcs: 2, ProcsPerNode: 1}, r, g, d, opts)
					_, sa, sb := fetchSchedules(tasks, single, nil, nil, nil)
					if len(sa.items) != 1 || len(sb.items) != 0 {
						t.Fatalf("%s: rank %d fetches %d blocks of A and %d of B, want 1 and 0", label, r, len(sa.items), len(sb.items))
					}
					want := 0
					if hidden || fl == FlavorCopy {
						want = 1
					}
					if st.ScratchBytes != int64(want*sa.items[0].elems()*8) {
						t.Errorf("%s: rank %d took %d B of scratch, want %d buffers of its one %d-element block",
							label, r, st.ScratchBytes, want, sa.items[0].elems())
					}
					if hidden && spies[r].granted != want {
						t.Errorf("%s: rank %d drew %d LocalBufs, want %d", label, r, spies[r].granted, want)
					}
				}
			}
		}
	}
}
