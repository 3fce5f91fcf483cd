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
// owner's segment.
type fetchItem struct {
	owner      int
	off, ld    int // region within the owner's block
	rows, cols int
	h          rt.Handle
}

func (f *fetchItem) elems() int { return f.rows * f.cols }

// aRegion returns the fetch region of a task's A operand within the
// owner's block.
func aRegion(t *Task) fetchItem {
	return fetchItem{
		owner: t.AOwner,
		off:   t.ASubI*t.ABlockCols + t.ASubJ,
		ld:    t.ABlockCols,
		rows:  t.ASubR,
		cols:  t.ASubC,
	}
}

func bRegion(t *Task) fetchItem {
	return fetchItem{
		owner: t.BOwner,
		off:   t.BSubI*t.BBlockCols + t.BSubJ,
		ld:    t.BBlockCols,
		rows:  t.BSubR,
		cols:  t.BSubC,
	}
}

func sameRegion(a, b fetchItem) bool {
	return a.owner == b.owner && a.off == b.off && a.ld == b.ld && a.rows == b.rows && a.cols == b.cols
}

// schedule is the per-matrix fetch plan derived from the ordered task list:
// the sequence of distinct blocks to fetch (consecutive tasks reusing a
// block share one fetch, which is the paper's buffer-reuse optimization)
// plus, per task, the fetch index it depends on (-1 when the operand is
// accessed directly).
type schedule struct {
	items  []fetchItem
	ofTask []int // fetch index per task, -1 = direct
	need   []int // running max fetch index needed through each task
}

func buildSchedule(tasks []Task, slots int, region func(*Task) fetchItem, direct func(*Task) bool) schedule {
	s := schedule{
		ofTask: make([]int, len(tasks)),
		need:   make([]int, len(tasks)),
	}
	run := -1
	for ti := range tasks {
		t := &tasks[ti]
		reg := region(t)
		if direct(t) {
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
// out per Dists (each rank's segment is its block, tight row-major). C is
// overwritten. The call barriers on entry (so freshly written A and B are
// globally visible) and on exit.
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
		if ga.LenAt(r) != ar*ac || gb.LenAt(r) != br*bc || gc.LenAt(r) != cr*cc {
			return fmt.Errorf("core: rank %d segments A=%d B=%d C=%d do not match distribution (%d,%d,%d)",
				r, ga.LenAt(r), gb.LenAt(r), gc.LenAt(r), ar*ac, br*bc, cr*cc)
		}
	}

	me := c.Rank()
	if opts.KernelThreads > 0 {
		if t := rt.FindKernelTuner(c); t != nil {
			t.SetKernelThreads(opts.KernelThreads)
		}
	}
	tasks := Plan(c.Topo(), me, g, d, opts)
	myRow, myCol := g.Coords(me)
	mLoc := dc.RowChunks[myRow].N
	nLoc := dc.ColChunks[myCol].N

	// Recovery ledger: each rank binds its per-rank bitset before the entry
	// barrier; a resumed attempt (marks already present) executes only the
	// remainder of the list.
	var lg *Ledger
	if opts.Ledger != nil {
		lg = opts.Ledger.Rank(me, len(tasks))
	}

	c.Barrier()
	var execErr error
	if len(tasks) > 0 {
		execErr = execTasks(c, tasks, opts, alpha, beta, ga, gb, gc, nLoc, lg)
	} else if mLoc*nLoc > 0 {
		// No contributions (cannot happen for valid dims, but keep C
		// well-defined): C = beta*C via a k=0 multiply.
		cb := c.Local(gc)
		zero := rt.Mat{Buf: cb, LD: nLoc, Rows: mLoc, Cols: 0}
		zeroB := rt.Mat{Buf: cb, LD: nLoc, Rows: 0, Cols: nLoc}
		c.Gemm(1, zero, zeroB, beta, rt.Mat{Buf: cb, LD: nLoc, Rows: mLoc, Cols: nLoc})
	}
	// The exit barrier runs even on cancellation: every rank shares the
	// Cancel signal and checks it at task granularity, so all of them reach
	// this point and the collective sequence stays aligned.
	c.Barrier()
	return execErr
}

// rankHealth is the capability a fault-tolerant runtime layer (the
// internal/faults resilient wrapper) exposes to the executor: which owners
// are currently stalling, and whether this rank has degraded to blocking
// transfers. When the ctx provides it, execution switches to the dynamic
// resilient schedule (see resilient.go); otherwise the static
// double-buffered pipeline below runs unchanged.
type rankHealth interface {
	IsSlow(rank int) bool
	Degraded() bool
}

func execTasks(c rt.Ctx, tasks []Task, opts Options, alpha, beta float64, ga, gb, gc rt.Global, nLoc int, lg *Ledger) error {
	if h, ok := c.(rankHealth); ok {
		return execTasksResilient(c, h, tasks, opts, alpha, beta, ga, gb, gc, nLoc, lg)
	}
	me := c.Rank()
	transA, transB := opts.Case.TransA(), opts.Case.TransB()

	// Resume: filter the list down to pending tasks, remembering original
	// indexes for ledger marks, and seed the dynamic beta tracker with the
	// regions completed tasks already touched (their beta is spent; the
	// planner's static First marks no longer apply). A fresh ledger keeps
	// the original list and the First-mark fast path.
	var orig []int
	touched := resumeTouched(tasks, lg)
	if touched != nil {
		pending := make([]Task, 0, len(tasks)-lg.Completed())
		orig = make([]int, 0, len(tasks)-lg.Completed())
		for i := range tasks {
			if !lg.Done(i) {
				pending = append(pending, tasks[i])
				orig = append(orig, i)
			}
		}
		tasks = pending
		if len(tasks) == 0 {
			return nil
		}
	}
	var ab *abftState
	if opts.ABFT {
		ab = newABFTState(c, opts.ABFTTol)
	}

	nbuf := 2
	if opts.SingleBuffer {
		nbuf = 1
	}
	sa := buildSchedule(tasks, nbuf, aRegion, func(t *Task) bool { return t.ADirect })
	sb := buildSchedule(tasks, nbuf, bRegion, func(t *Task) bool { return t.BDirect })
	var bufsA, bufsB []rt.Buffer
	if n := sa.maxElems(); n > 0 {
		for i := 0; i < nbuf; i++ {
			bufsA = append(bufsA, c.LocalBuf(n))
		}
	}
	if n := sb.maxElems(); n > 0 {
		for i := 0; i < nbuf; i++ {
			bufsB = append(bufsB, c.LocalBuf(n))
		}
	}

	// When the engine records spans, each burst of fetch issues is bracketed
	// with a KindIssue span — the executor-level view of "how long does
	// putting transfers in flight cost" that the overlap analysis separates
	// from the Wait time those transfers hide.
	rec := rt.FindRecorder(c)
	issuedA, issuedB := -1, -1
	issueA := func(upTo int) {
		if issuedA >= upTo {
			return
		}
		t0 := rec.SpanStart()
		for issuedA < upTo {
			issuedA++
			it := &sa.items[issuedA]
			it.h = c.NbGetSub(ga, it.owner, it.off, it.ld, it.rows, it.cols, bufsA[issuedA%nbuf], 0)
		}
		rec.SpanEnd(me, obs.KindIssue, t0)
	}
	issueB := func(upTo int) {
		if issuedB >= upTo {
			return
		}
		t0 := rec.SpanStart()
		for issuedB < upTo {
			issuedB++
			it := &sb.items[issuedB]
			it.h = c.NbGetSub(gb, it.owner, it.off, it.ld, it.rows, it.cols, bufsB[issuedB%nbuf], 0)
		}
		rec.SpanEnd(me, obs.KindIssue, t0)
	}
	// Warm the pipeline: with double buffering both buffers may be filled
	// before any compute, so the first remote transfers hide behind the
	// shared-memory tasks at the head of the list (paper §3.1 step 2).
	if !opts.SingleBuffer {
		issueA(min(1, len(sa.items)-1))
		issueB(min(1, len(sb.items)-1))
	}

	cBuf := c.Local(gc)
	for ti := range tasks {
		if cancelled(opts.Cancel) {
			// Outstanding nonblocking gets are simply never waited on — the
			// real engine completes them eagerly, and their targets are the
			// scratch buffers being surrendered right here anyway.
			releaseScratch(c, bufsA, bufsB)
			return ErrCancelled
		}
		t := &tasks[ti]
		// Top up the pipeline: everything this task needs, plus (double
		// buffered) everything the next task needs. Issuing item f evicts
		// item f-2's buffer, so the look-ahead is capped one past the item
		// the CURRENT task uses — a task re-reading the older slot must
		// finish before that slot is refilled.
		targetA, targetB := sa.need[ti], sb.need[ti]
		if !opts.SingleBuffer && ti+1 < len(tasks) {
			targetA, targetB = sa.need[ti+1], sb.need[ti+1]
			if fi := sa.ofTask[ti]; fi >= 0 && targetA > fi+1 {
				targetA = fi + 1
			}
			if fi := sb.ofTask[ti]; fi >= 0 && targetB > fi+1 {
				targetB = fi + 1
			}
			if targetA < sa.need[ti] {
				targetA = sa.need[ti]
			}
			if targetB < sb.need[ti] {
				targetB = sb.need[ti]
			}
		}
		issueA(targetA)
		issueB(targetB)

		var aMat, bMat rt.Mat
		if fi := sa.ofTask[ti]; fi >= 0 {
			// Fetched: the buffer holds the sub-block packed tight.
			c.Wait(sa.items[fi].h)
			aMat = rt.Mat{Buf: bufsA[fi%nbuf], LD: t.ASubC}
		} else {
			// Direct: view the sub-block in place inside the owner's block.
			if t.AOwner == me {
				aMat = rt.Mat{Buf: c.Local(ga)}
			} else {
				aMat = rt.Mat{Buf: c.Direct(ga, t.AOwner), Remote: true}
			}
			aMat.Off = t.ASubI*t.ABlockCols + t.ASubJ
			aMat.LD = t.ABlockCols
		}
		aMat.Rows, aMat.Cols = t.ASubR, t.ASubC
		aMat.Trans = transA

		if fi := sb.ofTask[ti]; fi >= 0 {
			c.Wait(sb.items[fi].h)
			bMat = rt.Mat{Buf: bufsB[fi%nbuf], LD: t.BSubC}
		} else {
			if t.BOwner == me {
				bMat = rt.Mat{Buf: c.Local(gb)}
			} else {
				bMat = rt.Mat{Buf: c.Direct(gb, t.BOwner), Remote: true}
			}
			bMat.Off = t.BSubI*t.BBlockCols + t.BSubJ
			bMat.LD = t.BBlockCols
		}
		bMat.Rows, bMat.Cols = t.BSubR, t.BSubC
		bMat.Trans = transB

		cMat := rt.Mat{Buf: cBuf, Off: t.CI*nLoc + t.CJ, LD: nLoc, Rows: t.CR, Cols: t.CC}
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
			releaseScratch(c, bufsA, bufsB)
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
	releaseScratch(c, bufsA, bufsB)
	return nil
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
