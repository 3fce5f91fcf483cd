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

	"srumma/internal/core"
	"srumma/internal/mat"
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
// flat path for this call (still correct, no staging win). Only
// FlavorDirect runs: any other flavour is refused before a band exists.
func MultiplyEx(c rt.Ctx, t Topo, d core.Dims, opts Options, alpha, beta float64, ga, gb, gc rt.Global) error {
	if opts.Flavor != core.FlavorDirect {
		return fmt.Errorf("hier: flavour %d: the two-level multiply runs only FlavorDirect", opts.Flavor)
	}
	// The engine's topology is the ground truth the inner executor plans
	// against (core.MultiplyEx calls Plan with c.Topo()); only the grid is
	// the caller's to choose. Taking it here keeps the staging plan and the
	// executor's fetch keys derived from the SAME topology no matter what
	// the caller stuffed into t.
	t.Topology = c.Topo()
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
	grp := t.DomainOf(me)
	lo, hi := t.DomainRanks(grp)
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
		for _, p := range panels(t, grp, plan) {
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
	band, seg := allocBand(c, max(bandElems[me-lo], 1))

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
	freeBand(c, band, seg)
	return err
}

// allocBand collectively allocates a member's band segment of n elements.
// On an engine that adopts caller memory it is a buffer from the pool,
// unzeroed (see the package doc for why that holds), which freeBand gives
// back; other engines Malloc it, and the buffer is nil.
func allocBand(c rt.Ctx, n int) (rt.Global, *mat.Buf) {
	ad := rt.FindAdopter(c)
	if ad == nil {
		return c.Malloc(n), nil
	}
	seg := mat.GetBuf(n)
	return ad.Adopt(seg.Data, 0), seg
}

// freeBand collectively frees what allocBand allocated and gives its pool
// buffer back.
func freeBand(c rt.Ctx, band rt.Global, seg *mat.Buf) {
	c.Free(band)
	mat.PutBuf(seg)
}

// stagedCtx is the inner team's runtime: a pass-through rt.Ctx that knows
// which fetch regions the outer level staged. The executor asks InPlace and
// multiplies them where they lie, so it never fetches one. Everything else —
// member fetches (windowed where the engine beneath windows them), direct
// operands, scratch, Gemm, barriers, fault injection in a wrapped engine —
// flows to the underlying ctx unchanged.
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

// GetWindow forwards the window get of the ctx beneath (rt.WindowGetter is
// found on the ctx at hand, not through Unwrap). The executor asks it only
// for the regions it fetches — never a staged one, which it reads in place.
func (s *stagedCtx) GetWindow(g rt.Global, rank, off, ld, rows, cols int) (rt.Mat, bool) {
	if w, ok := s.Ctx.(rt.WindowGetter); ok {
		return w.GetWindow(g, rank, off, ld, rows, cols)
	}
	return rt.Mat{}, false
}
