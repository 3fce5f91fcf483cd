// Package armci is the correctness engine: an ARMCI-like runtime in which
// every "process" is a goroutine in one address space. Collective memory
// allocation (ARMCI_Malloc), the one-sided strided get and put, direct
// shared-memory access, and a two-sided eager message layer are all
// implemented with real data movement, so algorithms running on it produce real numerical results
// that tests compare against serial dgemm.
//
// It mirrors the paper's portable implementation layer: ARMCI_Malloc returns
// the addresses of every rank's segment, ranks in the same shared-memory
// domain access each other's segments directly, and everything else goes
// through the (here trivially implemented) get/put calls.
package armci

import (
	"fmt"
	"sync"
	"time"

	"srumma/internal/obs"
	"srumma/internal/rt"
)

// Run executes body once per rank under topo and returns per-rank stats.
// Panics inside any rank are recovered and reported as errors with rank
// context; remaining ranks may then block forever, so Run also fails fast by
// propagating the first panic after all goroutines finish or the panicking
// rank is known. (Algorithms under test are deterministic; a panic means a
// bug, and tests want the message, not a hang.)
func Run(topo rt.Topology, body func(rt.Ctx)) ([]*rt.Stats, error) {
	return RunWithTimeout(topo, 0, body)
}

// WatchdogError is returned by RunWithTimeout when the SPMD program missed
// its deadline. Leaked is the set of ranks that were still running after
// the collectives were aborted and a grace period elapsed: those ranks are
// blocked outside the runtime (or wedged in injected faults) and their
// goroutines leak until process exit. An empty Leaked set means every rank
// unwound once the collectives were aborted — the run was wedged inside
// runtime collectives only.
type WatchdogError struct {
	Timeout time.Duration
	Leaked  []int
}

func (e *WatchdogError) Error() string {
	if len(e.Leaked) > 0 {
		return fmt.Sprintf("armci: watchdog fired after %v: ranks %v still running (goroutines leaked until process exit)", e.Timeout, e.Leaked)
	}
	return fmt.Sprintf("armci: watchdog fired after %v: run was wedged in runtime collectives", e.Timeout)
}

// Unwrap marks the watchdog as the engine-independent "rank deadlocked"
// failure class: the ranks are still there, wedged past the deadline —
// as opposed to rt.ErrRankExited, where a rank is gone (the multi-process
// engine's worker-death path). Callers route on errors.Is.
func (e *WatchdogError) Unwrap() error { return rt.ErrRankDeadlocked }

// RunWithTimeout is Run with a deadlock watchdog: if the SPMD program has
// not completed within `timeout` (0 = no watchdog), the collectives are
// aborted and the returned *WatchdogError records the leaked rank set.
// Aborted ranks unwind through their next barrier or pending receive; a
// rank blocked outside the runtime cannot be reclaimed (its goroutine
// leaks until process exit), which the error records.
//
// The one-shot lifecycle is a fresh single-job Team: spawn ranks, run the
// body, drain. Team (team.go) is the persistent form serving layers use.
func RunWithTimeout(topo rt.Topology, timeout time.Duration, body func(rt.Ctx)) ([]*rt.Stats, error) {
	t, err := NewTeam(topo)
	if err != nil {
		return nil, err
	}
	stats, err := t.RunWithTimeout(timeout, body)
	if _, wedged := err.(*WatchdogError); wedged {
		// The watchdog already reported the leaked ranks; don't make the
		// caller wait out Close's grace period re-detecting them.
		t.abandon()
		return stats, err
	}
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	return stats, err
}

type runtime struct {
	topo    rt.Topology
	barrier *barrier
	mbox    *mailbox
	start   time.Time

	// slots carries the collective exchanges in flight, by call sequence
	// number: the Global every rank publishes its own segment into.
	mu    sync.Mutex
	slots map[int]*global
}

func (r *runtime) slot(seq int) *global {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.slots[seq]
	if !ok {
		g = &global{id: seq, segs: make([]*buffer, r.topo.NProcs)}
		r.slots[seq] = g
	}
	return g
}

func (r *runtime) dropSlot(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.slots, seq)
}

// global is a collectively allocated (Malloc) or adopted (Adopt) set of
// per-rank segments; ld is the row stride of the matrix adopted segments
// are windows of, 0 for allocated ones. accMu serializes accumulate
// operations (ARMCI guarantees Acc atomicity among Accs on one array).
type global struct {
	id    int
	ld    int
	segs  []*buffer
	accMu sync.Mutex
}

func (g *global) LenAt(rank int) int { return len(g.segs[rank].data) }
func (g *global) LD() int            { return g.ld }

// doneHandle is an already-completed nonblocking operation.
type doneHandle struct{}

func (doneHandle) Done() bool { return true }

// chanHandle completes when ch is closed.
type chanHandle struct {
	ch chan struct{}
}

func (h *chanHandle) Done() bool {
	select {
	case <-h.ch:
		return true
	default:
		return false
	}
}

type ctx struct {
	LocalOps
	rt      *runtime
	collSeq int
}

func (c *ctx) Size() int         { return c.rt.topo.NProcs }
func (c *ctx) Topo() rt.Topology { return c.rt.topo }
func (c *ctx) Now() float64      { return time.Since(c.rt.start).Seconds() }

// Malloc allocates (and so first-touches) this rank's own zeroed segment on
// its own goroutine, in parallel with every other rank's, and publishes it.
func (c *ctx) Malloc(elems int) rt.Global {
	if elems < 0 {
		panic(fmt.Sprintf("armci: Malloc(%d)", elems))
	}
	return c.publish(make([]float64, elems), 0)
}

// Adopt implements rt.Adopter: ranks share the caller's address space, so
// the caller's window is this rank's segment as it stands.
func (c *ctx) Adopt(seg []float64, ld int) rt.Global { return c.publish(seg, ld) }

// publish is the collective exchange behind Malloc and Adopt: every rank
// deposits its segment into the slot's Global and one barrier makes them
// all visible. Every rank fetched the slot before entering the barrier, so
// rank 0 may drop it from the table right after.
func (c *ctx) publish(seg []float64, ld int) rt.Global {
	seq := c.collSeq
	c.collSeq++
	g := c.rt.slot(seq)
	g.segs[c.rank] = &buffer{data: seg}
	if c.rank == 0 {
		g.ld = ld
	}
	c.Barrier()
	if c.rank == 0 {
		c.rt.dropSlot(seq)
	}
	if g.ld != ld {
		panic(fmt.Sprintf("armci: rank %d published leading dimension %d, rank 0 published %d", c.rank, ld, g.ld))
	}
	return g
}

func (c *ctx) Free(g rt.Global) {
	// Real memory is garbage collected; Free only keeps the collective
	// call-sequence aligned across engines.
	c.collSeq++
	c.Barrier()
}

func (c *ctx) Local(g rt.Global) rt.Buffer {
	return g.(*global).segs[c.rank]
}

func (c *ctx) CanDirect(rank int) bool {
	return c.rt.topo.SameDomain(c.rank, rank)
}

func (c *ctx) Direct(g rt.Global, rank int) rt.Buffer {
	if !c.CanDirect(rank) {
		panic(fmt.Sprintf("armci: rank %d cannot direct-access rank %d (different domains)", c.rank, rank))
	}
	return g.(*global).segs[rank]
}

// NbGetSub and NbPutSub: in a single address space the copy is the whole
// operation; completing it eagerly satisfies the nonblocking contract (Wait
// is a no-op).
func (c *ctx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	c.GetRegion(g.(*global).segs[rank].data, c.CanDirect(rank), off, ld, rows, cols, dst, dstOff)
	return doneHandle{}
}

func (c *ctx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	c.PutRegion(src, srcOff, g.(*global).segs[rank].data, c.CanDirect(rank), off, ld, rows, cols)
	return doneHandle{}
}

func (c *ctx) Acc(alpha float64, src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	t0 := c.SpanStart()
	gg := g.(*global)
	s := src.(*buffer).data
	d := gg.segs[rank].data
	if srcOff < 0 || srcOff+n > len(s) || off < 0 || off+n > len(d) {
		panic(fmt.Sprintf("armci: Acc range [%d,%d) of %d -> [%d,%d) of %d",
			srcOff, srcOff+n, len(s), off, off+n, len(d)))
	}
	gg.accMu.Lock()
	for i := 0; i < n; i++ {
		d[off+i] += alpha * s[srcOff+i]
	}
	gg.accMu.Unlock()
	c.stats.Puts++
	if c.rt.topo.SameDomain(c.rank, rank) {
		c.stats.BytesShared += int64(n) * 8
	} else {
		c.stats.BytesRemote += int64(n) * 8
	}
	c.Span(obs.KindPut, t0)
}

func (c *ctx) FetchAdd(g rt.Global, rank, off int, delta float64) float64 {
	gg := g.(*global)
	d := gg.segs[rank].data
	if off < 0 || off >= len(d) {
		panic(fmt.Sprintf("armci: FetchAdd offset %d of %d", off, len(d)))
	}
	gg.accMu.Lock()
	old := d[off]
	d[off] = old + delta
	gg.accMu.Unlock()
	c.stats.Puts++
	if c.rt.topo.SameDomain(c.rank, rank) {
		c.stats.BytesShared += 8
	} else {
		c.stats.BytesRemote += 8
	}
	return old
}

func (c *ctx) Wait(h rt.Handle) {
	switch v := h.(type) {
	case doneHandle:
	case *chanHandle:
		t0 := time.Now()
		<-v.ch
		c.stats.WaitTime += time.Since(t0).Seconds()
		c.Span(obs.KindWait, t0)
	default:
		panic(fmt.Sprintf("armci: Wait on foreign handle %T", h))
	}
}

func (c *ctx) Send(to, tag int, src rt.Buffer, off, n int) {
	s := src.(*buffer).data
	if off < 0 || off+n > len(s) {
		panic(fmt.Sprintf("armci: Send range [%d,%d) of %d", off, off+n, len(s)))
	}
	c.stats.Msgs++
	c.stats.MsgBytes += int64(n) * 8
	t0 := c.SpanStart()
	c.rt.mbox.send(msgKey{c.rank, to, tag}, s[off:off+n])
	c.Span(obs.KindCopy, t0)
}

func (c *ctx) Isend(to, tag int, src rt.Buffer, off, n int) rt.Handle {
	// The eager mailbox buffers the payload, so the send completes locally.
	c.Send(to, tag, src, off, n)
	return doneHandle{}
}

func (c *ctx) Irecv(from, tag int, dst rt.Buffer, off, n int) rt.Handle {
	d := dst.(*buffer).data
	if off < 0 || off+n > len(d) {
		panic(fmt.Sprintf("armci: Irecv range [%d,%d) of %d", off, off+n, len(d)))
	}
	return c.rt.mbox.recv(msgKey{from, c.rank, tag}, d[off:off+n])
}

func (c *ctx) Recv(from, tag int, dst rt.Buffer, off, n int) {
	c.Wait(c.Irecv(from, tag, dst, off, n))
}

func (c *ctx) Barrier() {
	t0 := time.Now()
	c.rt.barrier.await()
	c.stats.BarrierTime += time.Since(t0).Seconds()
	c.Span(obs.KindBarrier, t0)
}

// ChecksumRegion checksums the rows x cols region at element off of rank's
// segment of g (rows ld apart) in packed row-major order, directly from
// the authoritative source data. This is the engine capability behind the
// fault-tolerance layer's end-to-end payload verification (the "sender
// side" checksum of internal/faults): an injected drop or bit flip only
// perturbs the landed copy, so the source checksum stays authoritative.
func (c *ctx) ChecksumRegion(g rt.Global, rank, off, ld, rows, cols int) uint64 {
	src := g.(*global).segs[rank].data
	rt.MustRegion(len(src), off, ld, rows, cols)
	return SumRegion(src, off, ld, rows, cols)
}

var (
	_ rt.Ctx            = (*ctx)(nil)
	_ rt.KernelTuner    = (*ctx)(nil)
	_ rt.Adopter        = (*ctx)(nil)
	_ rt.BufferReleaser = (*ctx)(nil)
	_ rt.Recorded       = (*ctx)(nil)
)
