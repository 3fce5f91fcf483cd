package core

// Resilient (fault-aware) execution of the SRUMMA task list. The static
// executor in exec.go commits to a fetch order at plan time, which is the
// right thing on a healthy machine — but under faults the order itself
// becomes a liability: a straggling owner at the head of the list stalls
// the whole pipeline, and a degraded transport makes deep look-ahead
// pointless. The owner-computes task list is exactly the structure that
// makes recovery cheap (cf. the task-based SUMMA formulations of Calvin,
// Lewis & Valeev): every task is independent, so the executor here picks
// tasks DYNAMICALLY —
//
//   - tasks whose operands live on ranks the resilience layer currently
//     flags as slow are deferred (the local form of task stealing: the
//     rank steals forward work from elsewhere in its own list instead of
//     blocking behind the straggler);
//   - while healthy, the next chosen task's operands are prefetched into
//     the alternate buffer pair, preserving the paper's
//     communication/computation overlap;
//   - once the resilience layer reports Degraded, look-ahead stops and
//     execution falls back to blocking single-buffer transfers — the
//     graceful-degradation end state.
//
// The trade against the static pipeline is deliberate: dynamic order loses
// the consecutive-task buffer-reuse optimization (a re-fetch instead of a
// reuse costs bandwidth), but keeps the multiply correct and moving under
// fault classes that would wedge the static order. beta-application is
// tracked per C region at execution time because dynamic order invalidates
// the planner's static First marks.

import (
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// inflight is one task whose fetches have been issued into buffer slot
// `slot` (handles nil for direct operands).
type inflight struct {
	ti   int
	slot int
	ha   rt.Handle
	hb   rt.Handle
}

func execTasksResilient(c rt.Ctx, health rankHealth, tasks []Task, opts Options, alpha, beta float64, ga, gb, gc rt.Global, ldc int, lg *Ledger) error {
	me := c.Rank()
	transA, transB := opts.Case.TransA(), opts.Case.TransB()

	// Per-task operand buffers: two slots per matrix so the next task can
	// prefetch while the current one computes (one slot when the caller
	// asked for blocking mode).
	nbuf := 2
	if opts.SingleBuffer {
		nbuf = 1
	}
	maxA, maxB := 0, 0
	for i := range tasks {
		t := &tasks[i]
		if !t.ADirect && t.ASubR*t.ASubC > maxA {
			maxA = t.ASubR * t.ASubC
		}
		if !t.BDirect && t.BSubR*t.BSubC > maxB {
			maxB = t.BSubR * t.BSubC
		}
	}
	bufsA, bufsB := scratch(c, nbuf, maxA), scratch(c, nbuf, maxB)
	// Deferred: this executor returns from inside its scheduling loop.
	defer releaseScratch(c, bufsA, bufsB)

	// Dynamic beta tracking: the first gemm into each C region applies the
	// caller's beta, every later one accumulates. On a resumed attempt the
	// map is pre-seeded from the ledger — regions a completed task touched
	// already had their beta applied.
	touched := make(map[cRegion]bool, len(tasks))

	remaining := make([]int, 0, len(tasks))
	for i := range tasks {
		if lg != nil && lg.Done(i) {
			t := &tasks[i]
			touched[cRegion{t.CI, t.CJ, t.CR, t.CC}] = true
			continue
		}
		remaining = append(remaining, i)
	}
	if len(remaining) == 0 {
		return nil
	}

	// pick chooses the next task: the first remaining one not waiting on a
	// slow owner, falling back to the head when every candidate is slow.
	// Skipping ahead is the steal the stats count.
	pick := func() int {
		for pos, ti := range remaining {
			t := &tasks[ti]
			if (t.ADirect || !health.IsSlow(t.AOwner)) && (t.BDirect || !health.IsSlow(t.BOwner)) {
				if pos > 0 {
					c.Stats().StragglerSteals++
				}
				return pos
			}
		}
		return 0
	}
	take := func() int {
		pos := pick()
		ti := remaining[pos]
		remaining = append(remaining[:pos], remaining[pos+1:]...)
		return ti
	}
	rec := rt.FindRecorder(c)
	issue := func(ti, slot int) inflight {
		t := &tasks[ti]
		f := inflight{ti: ti, slot: slot}
		if t.ADirect && t.BDirect {
			return f
		}
		t0 := rec.SpanStart()
		if !t.ADirect {
			r := aRegion(t, ga)
			f.ha = c.NbGetSub(ga, r.owner, r.off, r.ld, r.rows, r.cols, bufsA[slot], 0)
		}
		if !t.BDirect {
			r := bRegion(t, gb)
			f.hb = c.NbGetSub(gb, r.owner, r.off, r.ld, r.rows, r.cols, bufsB[slot], 0)
		}
		rec.SpanEnd(me, obs.KindIssue, t0)
		return f
	}

	var ab *abftState
	if opts.ABFT {
		ab = newABFTState(c, opts.ABFTTol)
	}

	cBuf := c.Local(gc)
	exec := func(f inflight) error {
		t := &tasks[f.ti]
		var bufA, bufB rt.Buffer
		if !t.ADirect {
			c.Wait(f.ha)
			bufA = bufsA[f.slot]
		}
		if !t.BDirect {
			c.Wait(f.hb)
			bufB = bufsB[f.slot]
		}
		aMat := operandView(c, ga, nil, aRegion(t, ga), bufA, transA)
		bMat := operandView(c, gb, nil, bRegion(t, gb), bufB, transB)

		reg := cRegion{t.CI, t.CJ, t.CR, t.CC}
		taskBeta := 1.0
		if !touched[reg] {
			touched[reg] = true
			taskBeta = beta
		}
		cMat := rt.Mat{Buf: cBuf, Off: t.CI*ldc + t.CJ, LD: ldc, Rows: t.CR, Cols: t.CC}
		if err := gemmVerified(c, ab, alpha, aMat, bMat, taskBeta, cMat); err != nil {
			return err
		}
		if lg != nil {
			lg.Mark(f.ti)
		}
		return nil
	}

	if cancelled(opts.Cancel) {
		return ErrCancelled
	}
	cur := issue(take(), 0)
	for {
		havePrefetch := false
		var next inflight
		if nbuf > 1 && !health.Degraded() && len(remaining) > 0 {
			// Healthy: overlap — issue the next task's fetches into the
			// other slot before blocking on the current ones.
			next = issue(take(), 1-cur.slot)
			havePrefetch = true
		}
		if err := exec(cur); err != nil {
			return err
		}
		if cancelled(opts.Cancel) {
			// Skip the remaining tasks (including a prefetched one); the
			// deferred releaseScratch surrenders the buffers its in-flight
			// gets target, and nothing will read them.
			return ErrCancelled
		}
		if havePrefetch {
			cur = next
			continue
		}
		if len(remaining) == 0 {
			return nil
		}
		// Degraded (or single-buffer): blocking mode, no look-ahead.
		cur = issue(take(), cur.slot)
	}
}
