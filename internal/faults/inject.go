package faults

import (
	"fmt"
	"math"
	"time"

	"srumma/internal/rt"
)

// SourceChecksummer is the engine capability behind end-to-end payload
// verification: the engine checksums the authoritative source region (the
// "sender side" of a transfer) so the recovery layer can compare it with
// what actually landed. The real engine (internal/armci) implements it;
// the size-only sim engine does not (there is no data to protect).
type SourceChecksummer interface {
	// ChecksumRegion checksums the rows x cols region at element `off` of
	// rank's segment of g, rows `ld` elements apart, in packed row-major
	// order (the same order the payload lands in).
	ChecksumRegion(g rt.Global, rank, off, ld, rows, cols int) uint64
}

// CrashError is the panic payload of an injected rank death. The armci
// runtime recovers it into the run error, so a crashed run fails loudly
// with rank and op context instead of hanging.
type CrashError struct {
	Rank    int
	Op      int
	Compute bool // the crash fired mid-task-loop (local gemm), not at an RMA op
}

func (e CrashError) Error() string {
	if e.Compute {
		return fmt.Sprintf("faults: rank %d crashed (injected fault) at local gemm %d", e.Rank, e.Op)
	}
	return fmt.Sprintf("faults: rank %d crashed (injected fault) at one-sided op %d", e.Rank, e.Op)
}

// Event is one injected fault, for replay-determinism assertions.
type Event struct {
	Op    int // per-rank faultable-op index
	Class Class
}

// Recorder collects the injected fault sequence per rank. Slots are
// per-rank, so concurrent ranks record race-free.
type Recorder struct {
	logs [][]Event
}

// NewRecorder sizes a recorder for nprocs ranks.
func NewRecorder(nprocs int) *Recorder {
	return &Recorder{logs: make([][]Event, nprocs)}
}

// Log returns rank's recorded fault sequence (read after the run).
func (r *Recorder) Log(rank int) []Event { return r.logs[rank] }

// Total returns the number of recorded faults across ranks.
func (r *Recorder) Total() int {
	n := 0
	for _, l := range r.logs {
		n += len(l)
	}
	return n
}

// Inject wraps a real-engine ctx so every one-sided transfer — NbGetSub
// and NbPutSub, which is all of them: rt.Get, rt.NbGet and rt.Put are built
// on the pair — consults the plan and suffers the planned fault: drops move
// no data, delays hide completion behind a wall-clock deadline (or
// forever), corruptions flip one payload bit after the data lands, ops
// targeting straggler ranks stall for the service delay, and the planned
// crash panics with CrashError. rec may be nil.
//
// The wrapper is for the real engine only: delays are wall-clock. The
// virtual-time engine consumes the same plan through NetHook instead.
func Inject(inner rt.Ctx, p *Plan, rec *Recorder) rt.Ctx {
	return &injCtx{Ctx: inner, plan: p, rec: rec}
}

type injCtx struct {
	rt.Ctx // inner engine; non-faulted methods pass through
	plan   *Plan
	rec    *Recorder
	op     int     // per-rank faultable-op counter
	gop    int     // per-rank local-gemm counter
	shared *Shared // non-nil in serving mode: process-wide counters + crash latches
}

// Unwrap exposes the engine beneath for capability discovery.
func (c *injCtx) Unwrap() rt.Ctx { return c.Ctx }

// nextOp consumes one one-sided op index: process-wide when the injector
// is Shared (serving mode), per-wrapper otherwise.
func (c *injCtx) nextOp() int {
	if c.shared != nil {
		return int(c.shared.ops[c.Rank()].Add(1) - 1)
	}
	op := c.op
	c.op++
	return op
}

func (c *injCtx) nextGemmOp() int {
	if c.shared != nil {
		return int(c.shared.gops[c.Rank()].Add(1) - 1)
	}
	op := c.gop
	c.gop++
	return op
}

// next consumes one op index and returns its planned faults: the per-op
// roll and the target-side straggler delay. It panics on a planned crash
// and records/counts whatever it injects.
func (c *injCtx) next(target int) (Fault, Fault) {
	op := c.nextOp()
	f := c.plan.At(c.Rank(), op)
	if f.Class == Crash && c.shared != nil && !c.shared.crashed.CompareAndSwap(false, true) {
		f = Fault{} // the process-wide crash already fired; the retry lives
	}
	if f.Class == Crash {
		c.record(op, Crash)
		panic(CrashError{Rank: c.Rank(), Op: op})
	}
	s := c.plan.TargetedBy(c.Rank(), target)
	if f.Class != None {
		c.record(op, f.Class)
	}
	if s.Class != None {
		c.record(op, s.Class)
	}
	return f, s
}

func (c *injCtx) record(op int, cl Class) {
	c.Stats().FaultsInjected++
	if c.rec != nil {
		c.rec.logs[c.Rank()] = append(c.rec.logs[c.Rank()], Event{Op: op, Class: cl})
	}
}

// corruptBuf flips the planned bit of one payload element that landed in
// dst at [off, off+n).
func (c *injCtx) corruptBuf(f Fault, dst rt.Buffer, off, n int) {
	if n <= 0 {
		return
	}
	i := off + f.Elem%n
	v := c.Ctx.ReadBuf(dst, i, 1)
	bits := math.Float64bits(v[0]) ^ (1 << f.Bit)
	c.Ctx.WriteBuf(dst, i, []float64{math.Float64frombits(bits)})
}

// delayedHandle hides an already-complete operation until a wall-clock
// deadline; forever-delayed handles never report done, so only a recovery
// timeout (or the run watchdog) gets past them.
type delayedHandle struct {
	inner   rt.Handle
	ready   time.Time
	forever bool
}

func (h *delayedHandle) Done() bool {
	return !h.forever && time.Now().After(h.ready) && h.inner.Done()
}

// doneFault is the handle of a dropped op: "complete", moved nothing.
type doneFault struct{}

func (doneFault) Done() bool { return true }

// wrapHandle hides the op's completion behind its planned delay and the
// target's straggler service delay. The slowness lands on the COMPLETION
// side, not the issue side: a nonblocking op on a real RMA network returns
// immediately however slow the remote service is — which is also what lets
// the resilient layer's wait-latency tracking detect stragglers.
func (c *injCtx) wrapHandle(f, s Fault, h rt.Handle) rt.Handle {
	if f.Class == Delay && f.Dur == Forever {
		return &delayedHandle{inner: h, forever: true}
	}
	var d time.Duration
	if f.Class == Delay {
		d += f.Dur
	}
	if s.Class == Straggle {
		d += s.Dur
	}
	if d <= 0 {
		return h
	}
	return &delayedHandle{inner: h, ready: time.Now().Add(d)}
}

func (c *injCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	f, s := c.next(rank)
	if f.Class == Drop {
		return doneFault{}
	}
	h := c.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
	if f.Class == Corrupt {
		c.corruptBuf(f, dst, dstOff, rows*cols)
	}
	return c.wrapHandle(f, s, h)
}

func (c *injCtx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	f, s := c.next(rank)
	n := rows * cols
	switch f.Class {
	case Drop:
		return doneFault{}
	case Corrupt:
		// The payload is corrupted in flight: put a bit-flipped copy so
		// the caller's source buffer stays intact.
		if n > 0 {
			scratch := c.Ctx.LocalBuf(n)
			c.Ctx.WriteBuf(scratch, 0, c.Ctx.ReadBuf(src, srcOff, n))
			c.corruptBuf(f, scratch, 0, n)
			return c.wrapHandle(f, s, c.Ctx.NbPutSub(scratch, 0, g, rank, off, ld, rows, cols))
		}
	}
	return c.wrapHandle(f, s, c.Ctx.NbPutSub(src, srcOff, g, rank, off, ld, rows, cols))
}

// Gemm consults the gemm fault stream: the planned compute crash panics
// mid-task-loop (CrashError with Compute set), and BadBlock faults flip
// one bit of the produced C view AFTER the kernel ran — silent corruption
// that only ABFT verification can see.
func (c *injCtx) Gemm(alpha float64, a, b rt.Mat, beta float64, cm rt.Mat) {
	op := c.nextGemmOp()
	f := c.plan.AtGemm(c.Rank(), op)
	if f.Class == Crash && c.shared != nil && !c.shared.gcrashed.CompareAndSwap(false, true) {
		f = Fault{}
	}
	if f.Class == Crash {
		c.record(op, Crash)
		panic(CrashError{Rank: c.Rank(), Op: op, Compute: true})
	}
	c.Ctx.Gemm(alpha, a, b, beta, cm)
	if f.Class == BadBlock && cm.Rows*cm.Cols > 0 {
		c.record(op, BadBlock)
		e := f.Elem % (cm.Rows * cm.Cols)
		i := cm.Off + (e/cm.Cols)*cm.LD + e%cm.Cols
		v := c.Ctx.ReadBuf(cm.Buf, i, 1)
		bits := math.Float64bits(v[0]) ^ (1 << f.Bit)
		c.Ctx.WriteBuf(cm.Buf, i, []float64{math.Float64frombits(bits)})
	}
}

// Wait understands the injector's own handle types. Waiting on a
// forever-delayed handle without the recovery layer blocks until the run
// watchdog fires — which is exactly the failure mode the resilient layer
// exists to remove.
func (c *injCtx) Wait(h rt.Handle) {
	switch v := h.(type) {
	case doneFault:
	case *delayedHandle:
		t0 := time.Now()
		for !v.Done() {
			time.Sleep(200 * time.Microsecond)
		}
		c.Stats().WaitTime += time.Since(t0).Seconds()
	default:
		c.Ctx.Wait(h)
	}
}
