package core

import (
	"errors"
	"fmt"

	"srumma/internal/grid"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// ErrCancelled is returned by Multiply when Options.Cancel fired before the
// task list completed. Detect it with errors.Is; the run's C block is only
// partially updated but the runtime, scratch pools and (on a persistent
// team) the rank goroutines are all left healthy for the next multiply.
var ErrCancelled = errors.New("core: multiply cancelled")

// cancelled polls a Cancel channel without blocking.
func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// fetchItem is one communication unit: the exact sub-block a task (or a
// run of consecutive tasks) multiplies, fetched with a strided get from the
// owner's segment. Once issued, view is where the tasks read it: its scratch
// copy packed tight, landing when h completes, or the owner's window.
type fetchItem struct {
	owner      int
	off, ld    int // region within the owner's segment
	rows, cols int
	h          rt.Handle
	view       rt.Mat
}

func (f *fetchItem) elems() int { return f.rows * f.cols }

// segLen is the length of a rows x cols block's segment of g: tight, it is
// simply rows*cols.
func segLen(g rt.Global, rows, cols int) int {
	if rows == 0 || cols == 0 {
		return 0
	}
	return (rows-1)*rt.SegLD(g, cols) + cols
}

// aRegion returns the region of a task's A operand within the owner's
// segment of g (nil = tight). The task's own coordinates are
// block-relative, so the plan does not depend on how g is stored.
func aRegion(t *Task, g rt.Global) fetchItem {
	ld := rt.SegLD(g, t.ABlockCols)
	return fetchItem{owner: t.AOwner, off: t.ASubI*ld + t.ASubJ, ld: ld, rows: t.ASubR, cols: t.ASubC}
}

func bRegion(t *Task, g rt.Global) fetchItem {
	ld := rt.SegLD(g, t.BBlockCols)
	return fetchItem{owner: t.BOwner, off: t.BSubI*ld + t.BSubJ, ld: ld, rows: t.BSubR, cols: t.BSubC}
}

func sameRegion(a, b fetchItem) bool {
	return a.owner == b.owner && a.off == b.off && a.ld == b.ld && a.rows == b.rows && a.cols == b.cols
}

// schedule is the per-matrix fetch plan derived from the ordered task list:
// the sequence of distinct blocks to fetch (consecutive tasks reusing a
// block share one fetch, which is the paper's buffer-reuse optimization)
// plus, per task, the fetch index it depends on (-1 when the operand is
// accessed directly or, under staged, already readable in place).
type schedule struct {
	items  []fetchItem
	ofTask []int // fetch index per task, -1 = direct
	need   []int // running max fetch index needed through each task
}

func buildSchedule(tasks []Task, slots int, g rt.Global, staged inPlacer, region func(*Task, rt.Global) fetchItem, direct func(*Task) bool) schedule {
	s := schedule{
		ofTask: make([]int, len(tasks)),
		need:   make([]int, len(tasks)),
	}
	run := -1
	for ti := range tasks {
		t := &tasks[ti]
		reg := region(t, g)
		if _, held := inPlace(staged, g, reg); held || direct(t) {
			s.ofTask[ti] = -1
		} else if n := len(s.items); n > 0 && sameRegion(s.items[n-1], reg) {
			// The most recently fetched region is the one we need: reuse
			// its buffer instead of re-fetching (the paper's "consecutive
			// matrix products before its copy is discarded").
			s.ofTask[ti] = n - 1
		} else if n := len(s.items); slots > 1 && n > 1 && sameRegion(s.items[n-2], reg) {
			// Both double-buffer slots hold live regions; the older one
			// also counts as a hit. This matters for transpose cases on
			// p != q grids, where tasks alternate between two blocks.
			s.ofTask[ti] = n - 2
		} else {
			s.items = append(s.items, reg)
			s.ofTask[ti] = len(s.items) - 1
		}
		if s.ofTask[ti] > run {
			run = s.ofTask[ti]
		}
		s.need[ti] = run
	}
	return s
}

// fetchSchedules derives both operands' schedules from a rank's task list
// as its executor issues them; what staged holds is not fetched.
func fetchSchedules(tasks []Task, single bool, ga, gb rt.Global, staged inPlacer) (nbuf int, sa, sb schedule) {
	nbuf = 2
	if single {
		nbuf = 1
	}
	sa = buildSchedule(tasks, nbuf, ga, staged, aRegion, func(t *Task) bool { return t.ADirect })
	sb = buildSchedule(tasks, nbuf, gb, staged, bRegion, func(t *Task) bool { return t.BDirect })
	return nbuf, sa, sb
}

func (s *schedule) maxElems() int {
	m := 0
	for _, it := range s.items {
		if n := it.elems(); n > m {
			m = n
		}
	}
	return m
}

// Multiply runs SRUMMA collectively: every rank computes its block of
// C = op(A) op(B). ga, gb and gc hold the block-distributed operands laid
// out per Dists: each rank's segment is its block, row-major with the
// Global's leading dimension — stored tight, or in place as a window of the
// caller's matrix (rt.Adopter). C is overwritten. The call barriers on
// entry (so freshly written A and B are globally visible) and on exit.
func Multiply(c rt.Ctx, g *grid.Grid, d Dims, opts Options, ga, gb, gc rt.Global) error {
	return MultiplyEx(c, g, d, opts, 1, 0, ga, gb, gc)
}

// MultiplyEx is the full dgemm form: C = alpha * op(A) op(B) + beta * C.
// The Global Arrays front end (package ga) uses it for ga_dgemm semantics.
func MultiplyEx(c rt.Ctx, g *grid.Grid, d Dims, opts Options, alpha, beta float64, ga, gb, gc rt.Global) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if g.Size() != c.Size() {
		return fmt.Errorf("core: grid %dx%d needs %d ranks, runtime has %d", g.P, g.Q, g.Size(), c.Size())
	}
	da, db, dc := Dists(g, d, opts.Case)
	for r := 0; r < g.Size(); r++ {
		ar, ac := da.LocalShape(r)
		br, bc := db.LocalShape(r)
		cr, cc := dc.LocalShape(r)
		wa, wb, wc := segLen(ga, ar, ac), segLen(gb, br, bc), segLen(gc, cr, cc)
		if ga.LenAt(r) != wa || gb.LenAt(r) != wb || gc.LenAt(r) != wc {
			return fmt.Errorf("core: rank %d segments A=%d B=%d C=%d do not match distribution (%d,%d,%d)",
				r, ga.LenAt(r), gb.LenAt(r), gc.LenAt(r), wa, wb, wc)
		}
	}

	me := c.Rank()
	tasks := Plan(c.Topo(), me, g, d, opts)
	_, myCol := g.Coords(me)
	ldc := rt.SegLD(gc, dc.ColChunks[myCol].N)

	// Recovery ledger: each rank binds its per-rank bitset before the entry
	// barrier; a resumed attempt (marks already present) executes only the
	// remainder of the list.
	var lg *Ledger
	if opts.Ledger != nil {
		lg = opts.Ledger.Rank(me, len(tasks))
	}

	c.Barrier()
	execErr := execTasks(c, tasks, opts, alpha, beta, ga, gb, gc, ldc, lg)
	// The exit barrier runs even on cancellation: every rank shares the
	// Cancel signal and checks it at task granularity, so all of them reach
	// this point and the collective sequence stays aligned.
	c.Barrier()
	return execErr
}

// inPlacer is the capability a staging layer (internal/hier's group band)
// exposes to the executor, by type assertion on the ctx it is handed: InPlace
// takes NbGetSub's description of a region and, when it is already readable
// where it lies, returns that view, packed tight. Under FlavorDirect such a
// region is multiplied from there like an in-domain block of A or B — nothing
// issued, no scratch taken for it; FlavorCopy never asks, and fetches it.
type inPlacer interface {
	InPlace(g rt.Global, rank, off, ld, rows, cols int) (rt.Mat, bool)
}

func inPlace(s inPlacer, g rt.Global, reg fetchItem) (rt.Mat, bool) {
	if s == nil {
		return rt.Mat{}, false
	}
	return s.InPlace(g, reg.owner, reg.off, reg.ld, reg.rows, reg.cols)
}

// execTasks runs the ordered task list; ldc is the leading dimension of
// this rank's own block of C. It is the one task loop: one pass of the
// double-buffered pipeline over what the ledger does not hold yet, in the
// planner's order. A retried job resumes here from the ledger its failed
// attempt left.
func execTasks(c rt.Ctx, tasks []Task, opts Options, alpha, beta float64, ga, gb, gc rt.Global, ldc int, lg *Ledger) error {
	pending, orig, touched := unfinished(tasks, lg)
	if len(pending) == 0 {
		return nil
	}
	transA, transB := opts.Case.TransA(), opts.Case.TransB()
	var ab *abftState
	if opts.ABFT {
		ab = &abftState{c: c}
	}
	// Under FlavorDirect what the ctx holds in place is not fetched, and
	// what it can window is fetched without a copy; FlavorCopy copies all.
	var staged inPlacer
	var win rt.WindowGetter
	if opts.Flavor == FlavorDirect {
		staged, _ = c.(inPlacer)
		win, _ = c.(rt.WindowGetter)
	}
	rec := rt.FindRecorder(c)
	cBuf := c.Local(gc)

	nbuf, sa, sb := fetchSchedules(pending, opts.SingleBuffer, ga, gb, staged)
	pa := &pipe{c: c, rec: rec, g: ga, staged: staged, win: win, nbuf: nbuf, s: sa, issued: -1}
	pb := &pipe{c: c, rec: rec, g: gb, staged: staged, win: win, nbuf: nbuf, s: sb, issued: -1}
	// Warm the pipeline: with double buffering both buffers may be filled
	// before any compute, so the first remote transfers hide behind the
	// shared-memory tasks at the head of the list (paper §3.1 step 2).
	if nbuf > 1 {
		pa.issue(min(1, len(pa.s.items)-1))
		pb.issue(min(1, len(pb.s.items)-1))
	}

	for ti := range pending {
		if cancelled(opts.Cancel) {
			// Outstanding nonblocking gets are simply never waited on — the
			// real engine completes them eagerly, and their targets are the
			// scratch buffers being surrendered right here anyway.
			releaseScratch(c, pa.bufs, pb.bufs)
			return ErrCancelled
		}
		t := &pending[ti]
		lookahead := nbuf > 1 && ti+1 < len(pending)
		pa.issue(pa.target(ti, lookahead))
		pb.issue(pb.target(ti, lookahead))
		aMat := pa.operand(ti, aRegion(t, ga), transA)
		bMat := pb.operand(ti, bRegion(t, gb), transB)

		cMat := rt.Mat{Buf: cBuf, Off: t.CI*ldc + t.CJ, LD: ldc, Rows: t.CR, Cols: t.CC}
		taskBeta := 1.0
		if touched == nil {
			if t.First {
				taskBeta = beta
			}
		} else if reg := (cRegion{t.CI, t.CJ, t.CR, t.CC}); !touched[reg] {
			touched[reg] = true
			taskBeta = beta
		}
		if err := gemmVerified(c, ab, alpha, aMat, bMat, taskBeta, cMat); err != nil {
			releaseScratch(c, pa.bufs, pb.bufs)
			return err
		}
		if lg != nil {
			if orig != nil {
				lg.Mark(orig[ti])
			} else {
				lg.Mark(ti)
			}
		}
	}
	releaseScratch(c, pa.bufs, pb.bufs)
	return nil
}

// pipe is one operand's half of the pipeline: its fetch schedule, the
// Global the fetches read, what the ctx holds in place or can window, and
// the scratch buffers (taken at the first copy) the copied items cycle
// through.
type pipe struct {
	c      rt.Ctx
	rec    *obs.Recorder
	g      rt.Global
	staged inPlacer
	win    rt.WindowGetter
	nbuf   int
	s      schedule
	bufs   []rt.Buffer
	issued int // last item put in flight
}

// issue puts every item up to upTo in flight, each burst bracketed with a
// KindIssue span — the executor-level view of "how long does putting
// transfers in flight cost" that the overlap analysis separates from the
// Wait time those transfers hide. An item the ctx windows is booked there
// and read where it lies; any other is copied into a scratch slot.
func (p *pipe) issue(upTo int) {
	if p.issued >= upTo {
		return
	}
	t0 := p.rec.SpanStart()
	for p.issued < upTo {
		p.issued++
		it := &p.s.items[p.issued]
		if p.win != nil {
			if v, ok := p.win.GetWindow(p.g, it.owner, it.off, it.ld, it.rows, it.cols); ok {
				it.view = v
				continue
			}
		}
		buf := p.slot(p.issued)
		it.h = p.c.NbGetSub(p.g, it.owner, it.off, it.ld, it.rows, it.cols, buf, 0)
		it.view = rt.Mat{Buf: buf, LD: it.cols, Rows: it.rows, Cols: it.cols}
	}
	p.rec.SpanEnd(p.c.Rank(), obs.KindIssue, t0)
}

// slot is the scratch buffer item fi is copied into. The buffers are taken
// at the first copy, one per slot the schedule can fill: nbuf, or as many
// as it has items when that is fewer.
func (p *pipe) slot(fi int) rt.Buffer {
	if p.bufs == nil {
		p.bufs = make([]rt.Buffer, min(p.nbuf, len(p.s.items)))
		for i := range p.bufs {
			p.bufs[i] = p.c.LocalBuf(p.s.maxElems())
		}
	}
	return p.bufs[fi%len(p.bufs)]
}

// target is how far the fetches must be issued before task ti runs:
// everything it needs plus, with lookahead (double buffered, not the last
// task), everything the next task needs. Issuing item f evicts item f-2's
// buffer, so the look-ahead is capped one past the item the CURRENT task
// uses — a task re-reading the older slot must finish before that slot is
// refilled.
func (p *pipe) target(ti int, lookahead bool) int {
	t := p.s.need[ti]
	if lookahead {
		t = p.s.need[ti+1]
		if fi := p.s.ofTask[ti]; fi >= 0 && t > fi+1 {
			t = fi + 1
		}
		t = max(t, p.s.need[ti])
	}
	return t
}

// operand is the Gemm operand for task ti's piece reg of the pipe's matrix:
// where its fetch left it — waited for at first use, which is in item order
// — or, when it has no fetch, where staged holds it or in place inside its
// owner's segment.
func (p *pipe) operand(ti int, reg fetchItem, trans bool) rt.Mat {
	var m rt.Mat
	if fi := p.s.ofTask[ti]; fi >= 0 {
		it := &p.s.items[fi]
		if it.h != nil {
			p.c.Wait(it.h)
			it.h = nil
		}
		m = it.view
	} else if v, held := inPlace(p.staged, p.g, reg); held {
		m = v
	} else {
		m = rt.Mat{Off: reg.off, LD: reg.ld, Rows: reg.rows, Cols: reg.cols}
		if reg.owner == p.c.Rank() {
			m.Buf = p.c.Local(p.g)
		} else {
			m.Buf, m.Remote = p.c.Direct(p.g, reg.owner), true
		}
	}
	m.Trans = trans
	return m
}

// releaseScratch hands the per-multiply communication buffers back to the
// engine's pools when it has any (the real engine does; the sim engine only
// counts bytes). With pooling, repeated Multiply calls stop allocating the
// double-buffer panels after the first run.
func releaseScratch(c rt.Ctx, bufsA, bufsB []rt.Buffer) {
	rel := rt.FindBufferReleaser(c)
	if rel == nil {
		return
	}
	for _, b := range bufsA {
		rel.ReleaseBuf(b)
	}
	for _, b := range bufsB {
		rel.ReleaseBuf(b)
	}
}
