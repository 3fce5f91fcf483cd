package faults

import (
	"fmt"
	"math"

	"srumma/internal/rt"
)

// CrashError is the panic payload of an injected rank death. The armci
// runtime recovers it into the run error, so a crashed run fails loudly
// with rank and op context instead of hanging.
type CrashError struct {
	Rank    int
	Op      int
	Compute bool // the crash fired mid-task-loop (local gemm), not at an RMA op
}

func (e CrashError) Error() string {
	at := "one-sided op"
	if e.Compute {
		at = "local gemm"
	}
	return fmt.Sprintf("faults: rank %d crashed (injected fault) at %s %d", e.Rank, at, e.Op)
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

// Inject wraps a real-engine ctx so every one-sided transfer — NbGetSub,
// which is all of them: rt.Get and rt.NbGet are built on it, and the
// engine's window get is forwarded as one more get — and every local gemm
// consults the plan: the planned crash panics with CrashError, and
// BadBlock faults corrupt the gemm's output. rec may be nil.
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

// next consumes one one-sided op index and panics with CrashError when the
// plan puts the rank's death there.
func (c *injCtx) next() {
	op := c.nextOp()
	if c.plan.At(c.Rank(), op).Class != Crash {
		return
	}
	if c.shared != nil && !c.shared.crashed.CompareAndSwap(false, true) {
		return // the process-wide crash already fired; the retry lives
	}
	c.record(op, Crash)
	panic(CrashError{Rank: c.Rank(), Op: op})
}

func (c *injCtx) record(op int, cl Class) {
	c.Stats().FaultsInjected++
	if c.rec != nil {
		c.rec.logs[c.Rank()] = append(c.rec.logs[c.Rank()], Event{Op: op, Class: cl})
	}
}

func (c *injCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	c.next()
	return c.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
}

// GetWindow forwards the engine's window get (rt.WindowGetter) through the
// op counter: it consumes one op index, as the NbGetSub it stands in for
// does, so a crash planned at a get op fires at the same op either way.
func (c *injCtx) GetWindow(g rt.Global, rank, off, ld, rows, cols int) (rt.Mat, bool) {
	w, ok := c.Ctx.(rt.WindowGetter)
	if !ok {
		return rt.Mat{}, false
	}
	c.next()
	return w.GetWindow(g, rank, off, ld, rows, cols)
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
