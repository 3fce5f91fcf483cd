// Package armci is the correctness engine: an ARMCI-like runtime in which
// every "process" is a goroutine in one address space. Collective memory
// allocation (ARMCI_Malloc), one-sided Get/Put/NbGet, direct shared-memory
// access, and a two-sided eager message layer are all implemented with real
// data movement, so algorithms running on it produce real numerical results
// that tests compare against serial dgemm.
//
// It mirrors the paper's portable implementation layer: ARMCI_Malloc returns
// the addresses of every rank's segment, ranks in the same shared-memory
// domain access each other's segments directly, and everything else goes
// through the (here trivially implemented) get/put calls.
package armci

import (
	"fmt"
	goruntime "runtime" // the package's own engine type is named runtime
	"sync"
	"time"

	"srumma/internal/mat"
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

// defaultKernelThreads is the oversubscription guard: with nprocs SPMD
// goroutines already competing for GOMAXPROCS cores, each rank's local
// dgemm gets an equal share of the remaining parallelism (at least one
// worker). A multiply on 4 ranks of a 16-core machine thus defaults to 4
// kernel workers per rank — 16 busy goroutines total, not 64.
func defaultKernelThreads(nprocs int) int {
	return max(1, goruntime.GOMAXPROCS(0)/nprocs)
}

// DefaultKernelThreads reports the engine's oversubscription guard for an
// nprocs-rank run on this machine: the per-rank local-dgemm worker count a
// rank gets when nothing overrides it. Exposed so operator tooling
// (srumma-info) can show how a deployment will slice the machine.
func DefaultKernelThreads(nprocs int) int {
	return defaultKernelThreads(max(1, nprocs))
}

// buffer is a real float64 buffer. scratch marks buffers handed out by
// LocalBuf (the only ones ReleaseBuf accepts); released marks a scratch
// buffer currently surrendered to the pools. Together they make pooled
// scratch misuse — double release, or releasing a Global segment / mailbox
// payload — fail loudly instead of aliasing a recycled buffer into a later
// request and silently breaking LocalBuf's zeroed-buffer guarantee.
type buffer struct {
	data     []float64
	scratch  bool
	released bool
}

func (b *buffer) Len() int { return len(b.data) }

// Scratch-buffer recycling. LocalBuf rounds requests up to power-of-two
// size classes and serves them from per-class pools of *buffer, so the
// SRUMMA executor's per-multiply communication buffers (released through
// ReleaseBuf) stop hitting the allocator once warm. Both the backing array
// and the buffer header are recycled; reused memory is cleared so LocalBuf
// keeps its zeroed-buffer guarantee.
const scratchClasses = 28 // largest pooled class: 2^27 elements = 1 GiB

var scratchPools [scratchClasses]sync.Pool

// sizeClass returns the smallest c with 1<<c >= n (n >= 1).
func sizeClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
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
	rt      *runtime
	rank    int
	stats   *rt.Stats
	collSeq int
	// kernelThreads is the local-dgemm worker count (rt.KernelTuner);
	// only this rank's goroutine touches it.
	kernelThreads int
	// rec receives wall-clock spans when tracing is on (nil otherwise —
	// the default, in which case every span helper is a pointer compare).
	rec *obs.Recorder
}

// ObsRecorder implements rt.Recorded: algorithm layers (the executor's
// fetch-issue spans) discover this rank's recorder through the Ctx.
func (c *ctx) ObsRecorder() *obs.Recorder { return c.rec }

// spanStart returns time.Now when tracing is on, the zero time otherwise.
// Ops that do not already read the clock for stats use it so the disabled
// path never touches the clock.
func (c *ctx) spanStart() time.Time { return c.rec.SpanStart() }

// span records one wall-clock interval ending now on this rank's lane.
func (c *ctx) span(k obs.Kind, t0 time.Time) { c.rec.SpanEnd(c.rank, k, t0) }

func (c *ctx) Rank() int         { return c.rank }
func (c *ctx) Size() int         { return c.rt.topo.NProcs }
func (c *ctx) Topo() rt.Topology { return c.rt.topo }
func (c *ctx) Now() float64      { return time.Since(c.rt.start).Seconds() }
func (c *ctx) Stats() *rt.Stats  { return c.stats }

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

func (c *ctx) LocalBuf(elems int) rt.Buffer {
	c.stats.ScratchBytes += int64(elems) * 8
	if elems <= 0 {
		return &buffer{scratch: true}
	}
	cls := sizeClass(elems)
	if cls >= scratchClasses {
		return &buffer{data: make([]float64, elems), scratch: true}
	}
	if v := scratchPools[cls].Get(); v != nil {
		b := v.(*buffer)
		b.data = b.data[:elems]
		clear(b.data)
		b.scratch, b.released = true, false
		return b
	}
	b := &buffer{data: make([]float64, 1<<cls), scratch: true}
	b.data = b.data[:elems]
	return b
}

// ReleaseBuf returns a LocalBuf scratch buffer to the size-class pools
// (rt.BufferReleaser). Only buffers LocalBuf itself handed out are
// accepted, exactly once: releasing a foreign buffer (a Global segment, a
// mailbox payload, another engine's type) or the same buffer twice panics,
// because pooling either would alias live or recycled memory into a later
// LocalBuf and corrupt its zeroed-buffer guarantee. Oversized buffers
// (beyond the largest pooled class) are accepted and fall through to the
// garbage collector.
func (c *ctx) ReleaseBuf(buf rt.Buffer) {
	b, ok := buf.(*buffer)
	if !ok {
		panic(fmt.Sprintf("armci: ReleaseBuf of foreign buffer type %T", buf))
	}
	if !b.scratch {
		panic("armci: ReleaseBuf of a buffer LocalBuf did not produce (Global segment or mailbox payload?)")
	}
	if b.released {
		panic("armci: double ReleaseBuf of the same scratch buffer")
	}
	b.released = true
	cp := cap(b.data)
	if cp == 0 || cp&(cp-1) != 0 {
		return
	}
	cls := sizeClass(cp)
	if cls >= scratchClasses {
		return
	}
	b.data = b.data[:cp]
	scratchPools[cls].Put(b)
}

// SetKernelThreads implements rt.KernelTuner: it sets how many goroutines
// this rank's Gemm calls may use (n <= 0 restores the engine default).
func (c *ctx) SetKernelThreads(n int) {
	if n <= 0 {
		n = defaultKernelThreads(c.rt.topo.NProcs)
	}
	c.kernelThreads = n
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

func (c *ctx) get(g rt.Global, rank, off, n int, dst rt.Buffer, dstOff int) {
	t0 := c.spanStart()
	src := g.(*global).segs[rank].data
	d := dst.(*buffer).data
	if off < 0 || off+n > len(src) || dstOff < 0 || dstOff+n > len(d) {
		panic(fmt.Sprintf("armci: Get range [%d,%d) of %d -> [%d,%d) of %d",
			off, off+n, len(src), dstOff, dstOff+n, len(d)))
	}
	copy(d[dstOff:dstOff+n], src[off:off+n])
	c.span(obs.KindGet, t0)
	if c.rt.topo.SameDomain(c.rank, rank) {
		c.stats.BytesShared += int64(n) * 8
		c.stats.GetsShared++
	} else {
		c.stats.BytesRemote += int64(n) * 8
		c.stats.GetsRemote++
	}
}

func (c *ctx) Get(g rt.Global, rank, off, n int, dst rt.Buffer, dstOff int) {
	c.get(g, rank, off, n, dst, dstOff)
}

func (c *ctx) NbGet(g rt.Global, rank, off, n int, dst rt.Buffer, dstOff int) rt.Handle {
	// In a single address space the copy is the whole operation; completing
	// it eagerly satisfies the nonblocking contract (Wait is a no-op).
	c.get(g, rank, off, n, dst, dstOff)
	return doneHandle{}
}

func (c *ctx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	t0 := c.spanStart()
	src := g.(*global).segs[rank].data
	d := dst.(*buffer).data
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		panic(fmt.Sprintf("armci: NbGetSub malformed region %dx%d ld=%d off=%d", rows, cols, ld, off))
	}
	if rows > 0 && cols > 0 {
		if last := off + (rows-1)*ld + cols; last > len(src) {
			panic(fmt.Sprintf("armci: NbGetSub region ends at %d of %d", last, len(src)))
		}
	}
	if dstOff < 0 || dstOff+rows*cols > len(d) {
		panic(fmt.Sprintf("armci: NbGetSub dst [%d,%d) of %d", dstOff, dstOff+rows*cols, len(d)))
	}
	for r := 0; r < rows; r++ {
		copy(d[dstOff+r*cols:dstOff+(r+1)*cols], src[off+r*ld:off+r*ld+cols])
	}
	n := int64(rows*cols) * 8
	if c.rt.topo.SameDomain(c.rank, rank) {
		c.stats.BytesShared += n
		c.stats.GetsShared++
	} else {
		c.stats.BytesRemote += n
		c.stats.GetsRemote++
	}
	c.span(obs.KindGet, t0)
	return doneHandle{}
}

func (c *ctx) Put(src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	t0 := c.spanStart()
	s := src.(*buffer).data
	d := g.(*global).segs[rank].data
	if srcOff < 0 || srcOff+n > len(s) || off < 0 || off+n > len(d) {
		panic(fmt.Sprintf("armci: Put range [%d,%d) of %d -> [%d,%d) of %d",
			srcOff, srcOff+n, len(s), off, off+n, len(d)))
	}
	copy(d[off:off+n], s[srcOff:srcOff+n])
	c.stats.Puts++
	if c.rt.topo.SameDomain(c.rank, rank) {
		c.stats.BytesShared += int64(n) * 8
	} else {
		c.stats.BytesRemote += int64(n) * 8
	}
	c.span(obs.KindPut, t0)
}

func (c *ctx) NbPut(src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) rt.Handle {
	// Single address space: the copy completes eagerly, like NbGet.
	c.Put(src, srcOff, n, g, rank, off)
	return doneHandle{}
}

func (c *ctx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	t0 := c.spanStart()
	s := src.(*buffer).data
	d := g.(*global).segs[rank].data
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		panic(fmt.Sprintf("armci: NbPutSub malformed region %dx%d ld=%d off=%d", rows, cols, ld, off))
	}
	if rows > 0 && cols > 0 {
		if last := off + (rows-1)*ld + cols; last > len(d) {
			panic(fmt.Sprintf("armci: NbPutSub region ends at %d of %d", last, len(d)))
		}
	}
	if srcOff < 0 || srcOff+rows*cols > len(s) {
		panic(fmt.Sprintf("armci: NbPutSub src [%d,%d) of %d", srcOff, srcOff+rows*cols, len(s)))
	}
	for r := 0; r < rows; r++ {
		copy(d[off+r*ld:off+r*ld+cols], s[srcOff+r*cols:srcOff+(r+1)*cols])
	}
	bytes := int64(rows*cols) * 8
	c.stats.Puts++
	if c.rt.topo.SameDomain(c.rank, rank) {
		c.stats.BytesShared += bytes
	} else {
		c.stats.BytesRemote += bytes
	}
	c.span(obs.KindPut, t0)
	return doneHandle{}
}

func (c *ctx) Acc(alpha float64, src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	t0 := c.spanStart()
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
	c.span(obs.KindPut, t0)
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
		c.span(obs.KindWait, t0)
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
	t0 := c.spanStart()
	c.rt.mbox.send(msgKey{c.rank, to, tag}, s[off:off+n])
	c.span(obs.KindCopy, t0)
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
	c.span(obs.KindBarrier, t0)
}

func (c *ctx) matView(m rt.Mat) *mat.Matrix {
	if err := m.Valid(); err != nil {
		panic(err)
	}
	b := m.Buf.(*buffer)
	end := m.Off
	if m.Rows > 0 && m.Cols > 0 {
		end = m.Off + (m.Rows-1)*m.LD + m.Cols
	}
	return &mat.Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.LD, Data: b.data[m.Off:end]}
}

func (c *ctx) Gemm(alpha float64, a, b rt.Mat, beta float64, cm rt.Mat) {
	t0 := time.Now()
	am, bm, cmm := c.matView(a), c.matView(b), c.matView(cm)
	var err error
	if c.kernelThreads > 1 {
		err = mat.GemmParallel(c.kernelThreads, a.Trans, b.Trans, alpha, am, bm, beta, cmm)
	} else {
		err = mat.Gemm(a.Trans, b.Trans, alpha, am, bm, beta, cmm)
	}
	if err != nil {
		panic(fmt.Sprintf("armci: Gemm: %v", err))
	}
	m, _ := a.OpShape()
	_, n := b.OpShape()
	k := a.Cols
	if a.Trans {
		k = a.Rows
	}
	c.stats.Flops += 2 * float64(m) * float64(n) * float64(k)
	c.stats.ComputeTime += time.Since(t0).Seconds()
	c.span(obs.KindGemm, t0)
}

func (c *ctx) Pack(src rt.Mat, dst rt.Buffer, dstOff int) {
	t0 := time.Now()
	sm := c.matView(src)
	d := dst.(*buffer).data
	need := src.Rows * src.Cols
	if dstOff < 0 || dstOff+need > len(d) {
		panic(fmt.Sprintf("armci: Pack needs [%d,%d) of %d", dstOff, dstOff+need, len(d)))
	}
	mat.PackInto(d[dstOff:dstOff+need], sm, 0, 0, src.Rows, src.Cols)
	c.stats.PackTime += time.Since(t0).Seconds()
	c.span(obs.KindPack, t0)
}

func (c *ctx) Unpack(src rt.Buffer, srcOff int, dst rt.Mat) {
	t0 := time.Now()
	dm := c.matView(dst)
	s := src.(*buffer).data
	need := dst.Rows * dst.Cols
	if srcOff < 0 || srcOff+need > len(s) {
		panic(fmt.Sprintf("armci: Unpack needs [%d,%d) of %d", srcOff, srcOff+need, len(s)))
	}
	mat.UnpackFrom(dm, s[srcOff:srcOff+need], 0, 0, dst.Rows, dst.Cols)
	c.stats.PackTime += time.Since(t0).Seconds()
	c.span(obs.KindPack, t0)
}

func (c *ctx) UnpackTranspose(src rt.Buffer, srcOff int, dst rt.Mat) {
	t0 := time.Now()
	dm := c.matView(dst)
	s := src.(*buffer).data
	need := dst.Rows * dst.Cols
	if srcOff < 0 || srcOff+need > len(s) {
		panic(fmt.Sprintf("armci: UnpackTranspose needs [%d,%d) of %d", srcOff, srcOff+need, len(s)))
	}
	mat.UnpackTransposeFrom(dm, s[srcOff:srcOff+need], 0, 0, dst.Rows, dst.Cols)
	c.stats.PackTime += time.Since(t0).Seconds()
	c.span(obs.KindPack, t0)
}

// ChecksumRegion checksums the rows x cols region at element off of rank's
// segment of g (rows ld apart) in packed row-major order, directly from
// the authoritative source data. This is the engine capability behind the
// fault-tolerance layer's end-to-end payload verification (the "sender
// side" checksum of internal/faults): an injected drop or bit flip only
// perturbs the landed copy, so the source checksum stays authoritative.
func (c *ctx) ChecksumRegion(g rt.Global, rank, off, ld, rows, cols int) uint64 {
	src := g.(*global).segs[rank].data
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		panic(fmt.Sprintf("armci: ChecksumRegion malformed region %dx%d ld=%d off=%d", rows, cols, ld, off))
	}
	if rows > 0 && cols > 0 {
		if last := off + (rows-1)*ld + cols; last > len(src) {
			panic(fmt.Sprintf("armci: ChecksumRegion region ends at %d of %d", last, len(src)))
		}
	}
	h := rt.ChecksumSeed()
	for r := 0; r < rows; r++ {
		for _, v := range src[off+r*ld : off+r*ld+cols] {
			h = rt.ChecksumAdd(h, v)
		}
	}
	return h
}

func (c *ctx) WriteBuf(dst rt.Buffer, off int, vals []float64) {
	d := dst.(*buffer).data
	if off < 0 || off+len(vals) > len(d) {
		panic(fmt.Sprintf("armci: WriteBuf range [%d,%d) of %d", off, off+len(vals), len(d)))
	}
	copy(d[off:], vals)
}

func (c *ctx) ReadBuf(src rt.Buffer, off, n int) []float64 {
	s := src.(*buffer).data
	if off < 0 || off+n > len(s) {
		panic(fmt.Sprintf("armci: ReadBuf range [%d,%d) of %d", off, off+n, len(s)))
	}
	out := make([]float64, n)
	copy(out, s[off:off+n])
	return out
}

var (
	_ rt.Ctx            = (*ctx)(nil)
	_ rt.KernelTuner    = (*ctx)(nil)
	_ rt.Adopter        = (*ctx)(nil)
	_ rt.BufferReleaser = (*ctx)(nil)
	_ rt.Recorded       = (*ctx)(nil)
)
