package hier

// The hierarchical multiply: stage what the group's members share into a
// band with one-sided gets, then run the UNTOUCHED flat SRUMMA executor on a
// ctx that knows the band. Bit-identity with flat SRUMMA falls out of the
// construction: the task lists, their order, the beta application and every
// Gemm operand value are exactly the flat plan's — only where a staged
// operand's bytes are read from changes (PR 8 pinned that Gemm is
// layout-independent bitwise, so same bytes ⇒ same C).

import (
	"fmt"
	"sync"

	"srumma/internal/core"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// bandKey names a staged region the way NbGetSub names a fetch. Keying by
// the Global (not by "A or B") keeps C = A·A right, one Global both operands.
type bandKey struct {
	g                          rt.Global
	owner, off, ld, rows, cols int
}

// bandLoc says where a staged region lives: which group member's band
// segment, at which element offset.
type bandLoc struct {
	member int
	off    int
}

// bandPool keeps band segments across calls on engines that adopt caller
// memory; slices come back unzeroed (see the package doc for why that holds).
var bandPool sync.Pool

func getBand(n int) []float64 {
	if p, _ := bandPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

// Multiply runs the hierarchical multiply collectively: C = op(A) op(B)
// with operands block-distributed per core.Dists on t.Grid. C is
// overwritten.
func Multiply(c rt.Ctx, t Topo, d core.Dims, opts Options, ga, gb, gc rt.Global) error {
	return MultiplyEx(c, t, d, opts, 1, 0, ga, gb, gc)
}

// MultiplyEx is the full dgemm form: C = alpha * op(A) op(B) + beta * C.
//
// Every rank stages its share of the group's shared regions (the schedule
// is deterministic, so members split the work without negotiation),
// barriers, and runs core.MultiplyEx through a ctx wrapper that knows what
// the band holds; the rest the executor fetches itself. Where group members
// cannot direct-map each other's band segments the group degrades to the
// flat path for this call (still correct, no staging win).
func MultiplyEx(c rt.Ctx, t Topo, d core.Dims, opts Options, alpha, beta float64, ga, gb, gc rt.Global) error {
	// The engine's topology is the ground truth the inner executor plans
	// against (core.MultiplyEx calls Plan with c.Topo()); only the group
	// carving and the grid are the caller's to choose. Overlaying here
	// keeps the staging plan and the executor's fetch keys derived from
	// the SAME topology no matter what the caller stuffed into t.
	et := c.Topo()
	et.GroupSize = t.GroupSize
	t.Topology = et
	if err := t.Validate(); err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return err
	}
	if t.Grid.Size() != c.Size() {
		return fmt.Errorf("hier: grid %dx%d needs %d ranks, runtime has %d",
			t.Grid.P, t.Grid.Q, t.Grid.Size(), c.Size())
	}

	me := c.Rank()
	grp := t.GroupOf(me)
	lo, hi := t.GroupRanks(grp)
	nMembers := hi - lo

	// Can this group share a band at all? Direct access is symmetric inside
	// a domain, so every member reaches the same verdict.
	direct := true
	for m := lo; m < hi; m++ {
		if m != me && !c.CanDirect(m) {
			direct = false
			break
		}
	}

	// The Shared regions of the outer schedule, in staging order, planned
	// against the operands' own leading dimensions so the staged keys are
	// the regions the executor will ask for. Region i is staged by member
	// lo + i%nMembers; every member derives the full assignment so the band
	// layout is agreed without messages.
	var staged []core.GroupRegion
	if direct {
		plan := core.GroupFetchPlan(t.Topology, grp, t.Grid, d, opts.Options, ga, gb)
		for _, p := range panels(t, grp, opts, plan) {
			if me == lo { // one member speaks for the group: rank sums are machine totals
				c.Stats().HierStagedBytes += int64(p.Staged) * 8
				c.Stats().HierMemberBytes += int64(p.Elems-p.Staged) * 8
			}
			for _, r := range p.Regions {
				if r.Shared() {
					staged = append(staged, r)
				}
			}
		}
	}
	src := [...]rt.Global{core.MatA: ga, core.MatB: gb}
	bandElems := make([]int, nMembers)
	loc := make(map[bandKey]bandLoc, len(staged))
	for i, r := range staged {
		mi := i % nMembers
		loc[bandKey{src[r.Matrix], r.Owner, r.Off, r.LD, r.Rows, r.Cols}] = bandLoc{member: lo + mi, off: bandElems[mi]}
		bandElems[mi] += r.Elems()
	}

	// The band is collective across ALL groups — even a group with nothing to
	// stage (or no direct access) contributes a token element so the global
	// call sequence stays aligned: one allocate, one free, on every engine.
	myBand := max(bandElems[me-lo], 1)
	var band rt.Global
	var seg []float64
	if ad := rt.FindAdopter(c); ad != nil {
		seg = getBand(myBand)
		band = ad.Adopt(seg, 0)
	} else {
		band = c.Malloc(myBand)
	}

	// Stage my share: one NbGetSub per assigned region, issued as one burst,
	// then drained, on the REAL ctx — chaos layers and engine accounting see
	// ordinary one-sided traffic.
	rec := rt.FindRecorder(c)
	t0 := rec.SpanStart()
	local := c.Local(band)
	var handles []rt.Handle
	off := 0
	for i, r := range staged {
		if i%nMembers != me-lo {
			continue
		}
		handles = append(handles, c.NbGetSub(src[r.Matrix], r.Owner, r.Off, r.LD, r.Rows, r.Cols, local, off))
		off += r.Elems()
	}
	for _, h := range handles {
		c.Wait(h)
	}
	// Publish the bands: after this barrier every member may direct-read
	// every segment (the same write-then-barrier-then-read discipline the
	// flat direct path relies on).
	c.Barrier()
	rec.SpanEnd(me, obs.KindStage, t0)

	var inner rt.Ctx = c
	if len(loc) > 0 {
		inner = &stagedCtx{Ctx: c, band: band, loc: loc}
	}
	err := core.MultiplyEx(inner, t.Grid, d, opts.Options, alpha, beta, ga, gb, gc)
	// core.MultiplyEx exits through a barrier on every path (including
	// cancellation): the band is quiescent, Free stays aligned, seg can go back.
	c.Free(band)
	if seg != nil {
		bandPool.Put(&seg)
	}
	return err
}

// stagedCtx is the inner team's runtime: a pass-through rt.Ctx that knows
// which fetch regions the outer level staged. Under FlavorDirect the
// executor asks InPlace and multiplies them where they lie; under
// FlavorCopy it fetches as ever and NbGetSub serves the staged ones from
// the band. Everything else — member fetches, direct operands, scratch,
// Gemm, barriers, fault injection in a wrapped engine — flows to the
// underlying ctx unchanged.
type stagedCtx struct {
	rt.Ctx
	band rt.Global
	loc  map[bandKey]bandLoc
}

// Unwrap keeps engine capabilities (kernel tuning, buffer pools, span
// recorders) discoverable through the wrapper.
func (s *stagedCtx) Unwrap() rt.Ctx { return s.Ctx }

// InPlace is the executor's in-place capability (core.execTasks): the view
// of a staged region inside its member's band segment, packed tight.
func (s *stagedCtx) InPlace(g rt.Global, rank, off, ld, rows, cols int) (rt.Mat, bool) {
	bl, ok := s.loc[bandKey{g, rank, off, ld, rows, cols}]
	if !ok {
		return rt.Mat{}, false
	}
	m := rt.Mat{Off: bl.off, LD: cols, Rows: rows, Cols: cols}
	if bl.member == s.Rank() {
		m.Buf = s.Local(s.band)
	} else {
		m.Buf, m.Remote = s.Direct(s.band, bl.member), true
	}
	return m, true
}

// servedHandle is the no-op handle of a fetch satisfied from the band.
type servedHandle struct{}

func (servedHandle) Done() bool { return true }

// NbGetSub is the FlavorCopy arm: a staged region is copied out of the band
// into the executor's fetch buffer — a contiguous Pack, charged as a
// shared-memory copy by the sim engine, a plain memcpy on the real ones.
func (s *stagedCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	if m, ok := s.InPlace(g, rank, off, ld, rows, cols); ok {
		s.Ctx.Pack(m, dst, dstOff)
		return servedHandle{}
	}
	return s.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
}

func (s *stagedCtx) Wait(h rt.Handle) {
	if _, ok := h.(servedHandle); ok {
		return
	}
	s.Ctx.Wait(h)
}
