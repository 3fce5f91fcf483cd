// Package simrt is the performance-model engine: it implements rt.Ctx on
// top of the vtime kernel, the simnet fabric model and a machine profile,
// so the same SPMD algorithm code that runs (with real data) on the armci
// engine runs here with communication and computation charged to a virtual
// clock. This is what regenerates the paper's figures: none of the paper's
// platforms exist on this machine, so their protocol behaviour — zero-copy
// RMA, LAPI's host-CPU staging copies, MPI's eager/rendezvous switch,
// shared-memory copy vs. direct access — is modeled explicitly.
//
// Protocol model summary:
//
//   - Same-domain get/put: a memory copy executed by the calling CPU
//     (ARMCI implements intra-SMP get as memcpy), so it cannot overlap.
//   - Cross-domain get: an RMA request (RMALatency) followed by a wire
//     transfer progressed by the NIC; the initiator is free — full overlap.
//     Without zero-copy, the wire rate is capped by the staging-copy
//     bandwidth and the *owner's* CPU loses the staging time (charged at
//     its next compute).
//   - MPI eager (size <= threshold): sender copies into a system buffer
//     (busy), wire transfer proceeds asynchronously, receiver pays a
//     copy-out when it completes the receive — overlap is good.
//   - MPI rendezvous (size > threshold): no data moves until the sender is
//     blocked in Wait/Send AND the receiver has posted — the transfer
//     happens inside the wait, so overlap collapses. This is the 16 KB
//     cliff in the paper's Figure 7.
package simrt

import (
	"fmt"
	"math"

	"srumma/internal/machine"
	"srumma/internal/obs"
	"srumma/internal/rt"
	"srumma/internal/simnet"
	"srumma/internal/vtime"
)

// Result carries the outcome of a simulated run.
type Result struct {
	// Time is the virtual seconds from start until the last process
	// finished.
	Time float64
	// Stats holds per-rank accounting.
	Stats []*rt.Stats
}

// Run executes body once per rank on the modeled platform and returns the
// virtual-time result.
func Run(prof machine.Profile, nprocs int, body func(rt.Ctx)) (*Result, error) {
	return run(prof, nprocs, nil, body)
}

func run(prof machine.Profile, nprocs int, tr *Tracer, body func(rt.Ctx)) (*Result, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	topo := rt.Topology{
		NProcs:             nprocs,
		ProcsPerNode:       prof.ProcsPerNode,
		DomainSpansMachine: prof.DomainSpansMachine,
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	k := vtime.NewKernel()
	net := simnet.New(k, simnet.Config{
		Nodes:       topo.NumNodes(),
		NodeBW:      prof.NetBW,
		NodeLatency: vtime.FromSeconds(prof.NetLatency),
		MemBW:       prof.MemBW,
		MemLatency:  vtime.FromSeconds(prof.MemLatency),
		BisectionBW: prof.BisectionPerNode * float64(topo.NumNodes()),
	})
	tr.ensure(nprocs)
	w := &world{
		tr:        tr,
		prof:      prof,
		topo:      topo,
		k:         k,
		net:       net,
		barrier:   k.NewBarrier(nprocs),
		slots:     make(map[int]*collSlot),
		sends:     make(map[msgKey][]*simMsg),
		recvs:     make(map[msgKey][]*pendingRecv),
		unstarted: make([][]*simMsg, nprocs),
		steal:     make([]vtime.Time, nprocs),
	}
	stats := make([]*rt.Stats, nprocs)
	err := k.Run(nprocs, func(p *vtime.Proc) {
		c := &ctx{w: w, p: p, stats: &rt.Stats{}}
		stats[p.Rank()] = c.stats
		body(c)
	})
	return &Result{Time: k.Now().Seconds(), Stats: stats}, err
}

// world is the shared simulation state. The vtime kernel guarantees only
// one process (or event callback) runs at a time, so plain maps suffice.
type world struct {
	tr      *Tracer
	prof    machine.Profile
	topo    rt.Topology
	k       *vtime.Kernel
	net     *simnet.Net
	barrier *vtime.Barrier
	slots   map[int]*collSlot
	sends   map[msgKey][]*simMsg
	recvs   map[msgKey][]*pendingRecv
	// unstarted holds each rank's rendezvous sends that have not begun
	// moving data. Entering any "library call" (Wait, Recv, Barrier)
	// progresses them, the way real MPI progress engines push all pending
	// operations whenever the application is inside the library.
	unstarted [][]*simMsg
	steal     []vtime.Time // CPU time stolen from each rank by staging copies
	// counters backs FetchAdd cells with real values: even the size-only
	// engine must return true counter values because callers' control flow
	// (dynamic load balancing) depends on them.
	counters map[*global]map[int]float64
	nextID   int
}

// progress marks every pending rendezvous send of rank as sender-ready and
// starts those whose receive is posted.
func (w *world) progress(rank int) {
	pend := w.unstarted[rank]
	if len(pend) == 0 {
		return
	}
	keep := pend[:0]
	for _, m := range pend {
		m.senderReady = true
		w.maybeStart(m)
		if !m.started {
			keep = append(keep, m)
		}
	}
	w.unstarted[rank] = keep
}

type collSlot struct {
	sizes []int
	g     *global
	n     int // ranks that have deposited
}

// buffer is a size-only buffer: the sim engine never materializes data.
type buffer struct{ n int }

func (b buffer) Len() int { return b.n }

type global struct {
	id   int
	segs []int
}

func (g *global) LenAt(rank int) int { return g.segs[rank] }
func (g *global) LD() int            { return 0 }

// handle wraps a vtime completion with protocol hooks: preWait runs when the
// owner enters Wait (rendezvous "sender is in the library"), postWait is CPU
// time charged after completion (eager receive copy-out).
type handle struct {
	h        *vtime.Handle
	preWait  func()
	postWait vtime.Time
	settled  bool
}

func (h *handle) Done() bool { return h.h.Done() }

type ctx struct {
	w       *world
	p       *vtime.Proc
	stats   *rt.Stats
	collSeq int
}

// trace records an activity interval ending now.
func (c *ctx) trace(kind obs.Kind, t0 vtime.Time) {
	c.w.tr.add(c.p.Rank(), kind, t0.Seconds(), c.p.Now().Seconds())
}

func (c *ctx) Rank() int         { return c.p.Rank() }
func (c *ctx) Size() int         { return c.w.topo.NProcs }
func (c *ctx) Topo() rt.Topology { return c.w.topo }
func (c *ctx) Now() float64      { return c.p.Now().Seconds() }
func (c *ctx) Stats() *rt.Stats  { return c.stats }

func (c *ctx) Malloc(elems int) rt.Global {
	if elems < 0 {
		panic(fmt.Sprintf("simrt: Malloc(%d)", elems))
	}
	seq := c.collSeq
	c.collSeq++
	s, ok := c.w.slots[seq]
	if !ok {
		s = &collSlot{sizes: make([]int, c.Size())}
		c.w.slots[seq] = s
	}
	s.sizes[c.Rank()] = elems
	s.n++
	c.Barrier()
	if s.g == nil {
		c.w.nextID++
		s.g = &global{id: c.w.nextID, segs: append([]int(nil), s.sizes...)}
	}
	g := s.g
	c.Barrier()
	delete(c.w.slots, seq)
	return g
}

func (c *ctx) Free(rt.Global) {
	c.collSeq++
	c.Barrier()
}

func (c *ctx) LocalBuf(elems int) rt.Buffer {
	c.stats.ScratchBytes += int64(elems) * 8
	return buffer{n: elems}
}

func (c *ctx) Local(g rt.Global) rt.Buffer {
	return buffer{n: g.(*global).segs[c.Rank()]}
}

func (c *ctx) CanDirect(rank int) bool {
	return c.w.topo.SameDomain(c.Rank(), rank)
}

func (c *ctx) Direct(g rt.Global, rank int) rt.Buffer {
	if !c.CanDirect(rank) {
		panic(fmt.Sprintf("simrt: rank %d cannot direct-access rank %d", c.Rank(), rank))
	}
	return buffer{n: g.(*global).segs[rank]}
}

func (c *ctx) checkRange(what string, bufLen, off, n int) {
	if off < 0 || n < 0 || off+n > bufLen {
		panic(fmt.Sprintf("simrt: %s range [%d,%d) of %d", what, off, off+n, bufLen))
	}
}

func (c *ctx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	rt.MustRegion(g.(*global).segs[rank], off, ld, rows, cols)
	c.checkRange("NbGetSub dst", dst.Len(), dstOff, rows*cols)
	// Cost model: a get of rows*cols elements, whatever their stride —
	// ARMCI's strided protocol streams the region without per-row
	// handshakes.
	bytes := int64(rows*cols) * 8
	srcNode := c.w.topo.NodeOf(rank)
	myNode := c.w.topo.NodeOf(c.Rank())
	if c.w.topo.SameDomain(c.Rank(), rank) {
		// Intra-domain get is a memcpy by the calling CPU: it completes
		// before return, cannot be overlapped, and streams no faster than
		// one CPU can copy (CopyBW).
		c.stats.BytesShared += bytes
		c.stats.GetsShared++
		done := c.w.net.Transfer(srcNode, myNode, bytes, 0, c.w.prof.CopyBW)
		t0 := c.p.Now()
		c.p.Wait(done)
		c.stats.WaitTime += (c.p.Now() - t0).Seconds()
		c.trace(obs.KindCopy, t0)
		return &handle{h: done}
	}
	c.stats.BytesRemote += bytes
	c.stats.GetsRemote++
	var cap float64
	if !c.w.prof.ZeroCopy {
		// Staged protocol: wire rate capped by the staging copies, and the
		// owner's CPU is taken away for the copy-in.
		cap = c.w.prof.HostCopyBW
		c.w.steal[rank] += vtime.FromSeconds(float64(bytes) / c.w.prof.HostCopyBW)
	}
	done := c.w.net.Transfer(srcNode, myNode, bytes, vtime.FromSeconds(c.w.prof.RMALatency), cap)
	return &handle{h: done}
}

// putFlow starts the wire movement for a put-like operation of `bytes`
// toward rank and returns its completion handle, charging stats and
// (without zero-copy) the victim's staging steal.
func (c *ctx) putFlow(bytes int64, rank int) *vtime.Handle {
	myNode := c.w.topo.NodeOf(c.Rank())
	dstNode := c.w.topo.NodeOf(rank)
	c.stats.Puts++
	var cap float64
	var lat vtime.Time
	if c.w.topo.SameDomain(c.Rank(), rank) {
		c.stats.BytesShared += bytes
		cap = c.w.prof.CopyBW
	} else {
		c.stats.BytesRemote += bytes
		lat = vtime.FromSeconds(c.w.prof.RMALatency)
		if !c.w.prof.ZeroCopy {
			cap = c.w.prof.HostCopyBW
			c.w.steal[rank] += vtime.FromSeconds(float64(bytes) / c.w.prof.HostCopyBW)
		}
	}
	return c.w.net.Transfer(myNode, dstNode, bytes, lat, cap)
}

func (c *ctx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	rt.MustRegion(g.(*global).segs[rank], off, ld, rows, cols)
	c.checkRange("NbPutSub src", src.Len(), srcOff, rows*cols)
	done := c.putFlow(int64(rows*cols)*8, rank)
	if c.w.topo.SameDomain(c.Rank(), rank) {
		// Intra-domain put is a memcpy by the calling CPU, like a get.
		t0 := c.p.Now()
		c.p.Wait(done)
		c.stats.WaitTime += (c.p.Now() - t0).Seconds()
	}
	return &handle{h: done}
}

func (c *ctx) Acc(alpha float64, src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	gg := g.(*global)
	c.checkRange("Acc src", src.Len(), srcOff, n)
	c.checkRange("Acc dst", gg.segs[rank], off, n)
	bytes := int64(n) * 8
	// The data moves like a put; the addition is done by the owner's CPU
	// (host-assisted accumulate), which shows up as stolen time there.
	done := c.putFlow(bytes, rank)
	if rank != c.Rank() && c.w.prof.CopyBW > 0 {
		c.w.steal[rank] += vtime.FromSeconds(float64(bytes) / c.w.prof.CopyBW)
	}
	t0 := c.p.Now()
	c.p.Wait(done)
	c.stats.WaitTime += (c.p.Now() - t0).Seconds()
	if rank == c.Rank() {
		// Local accumulate: the caller does the additions.
		c.p.Advance(vtime.FromSeconds(float64(n) / c.w.prof.PeakFlops))
	}
}

func (c *ctx) FetchAdd(g rt.Global, rank, off int, delta float64) float64 {
	gg := g.(*global)
	if off < 0 || off >= gg.segs[rank] {
		panic(fmt.Sprintf("simrt: FetchAdd offset %d of %d", off, gg.segs[rank]))
	}
	// Semantics: the kernel is single-threaded-at-a-turn, so a plain map
	// gives linearizable counters. Cost: a small blocking round trip to the
	// owner (request + reply through the fabric).
	if c.w.counters == nil {
		c.w.counters = make(map[*global]map[int]float64)
	}
	cells := c.w.counters[gg]
	if cells == nil {
		cells = make(map[int]float64)
		c.w.counters[gg] = cells
	}
	c.stats.Puts++
	if c.w.topo.SameDomain(c.Rank(), rank) {
		c.stats.BytesShared += 8
	} else {
		c.stats.BytesRemote += 8
	}
	myNode := c.w.topo.NodeOf(c.Rank())
	ownerNode := c.w.topo.NodeOf(rank)
	done := c.w.net.Transfer(ownerNode, myNode, 8, vtime.FromSeconds(c.w.prof.RMALatency), 0)
	t0 := c.p.Now()
	c.p.Wait(done)
	c.stats.WaitTime += (c.p.Now() - t0).Seconds()
	// Linearization point: after the round trip completes.
	old := cells[off]
	cells[off] = old + delta
	return old
}

func (c *ctx) Wait(h rt.Handle) {
	sh, ok := h.(*handle)
	if !ok {
		panic(fmt.Sprintf("simrt: Wait on foreign handle %T", h))
	}
	c.w.progress(c.Rank())
	if sh.preWait != nil {
		fn := sh.preWait
		sh.preWait = nil
		fn()
	}
	if !sh.h.Done() {
		t0 := c.p.Now()
		c.p.Wait(sh.h)
		c.stats.WaitTime += (c.p.Now() - t0).Seconds()
		c.trace(obs.KindWait, t0)
	}
	if sh.postWait > 0 && !sh.settled {
		sh.settled = true
		c.stats.PackTime += sh.postWait.Seconds()
		t0 := c.p.Now()
		c.p.Advance(sh.postWait)
		c.trace(obs.KindPack, t0)
	}
}

func (c *ctx) Barrier() {
	t0 := c.p.Now()
	c.w.progress(c.Rank())
	c.w.barrier.Arrive(c.p)
	if n := c.Size(); n > 1 {
		rounds := math.Ceil(math.Log2(float64(n)))
		c.p.Advance(vtime.FromSeconds(rounds * c.w.prof.MPILatency))
	}
	c.stats.BarrierTime += (c.p.Now() - t0).Seconds()
	c.trace(obs.KindBarrier, t0)
}

// gemmShape validates operand shapes and returns (m, n, k).
func gemmShape(a, b, cm rt.Mat) (int, int, int) {
	for _, m := range []rt.Mat{a, b, cm} {
		if err := m.Valid(); err != nil {
			panic(err)
		}
	}
	m, ka := a.OpShape()
	kb, n := b.OpShape()
	if ka != kb || cm.Rows != m || cm.Cols != n || cm.Trans {
		panic(fmt.Sprintf("simrt: Gemm shapes op(A)=%dx%d op(B)=%dx%d C=%dx%d",
			m, ka, kb, n, cm.Rows, cm.Cols))
	}
	return m, n, ka
}

func (c *ctx) Gemm(alpha float64, a, b rt.Mat, beta float64, cm rt.Mat) {
	m, n, k := gemmShape(a, b, cm)
	remote := a.Remote || b.Remote || cm.Remote
	t := c.w.prof.GemmTime(m, n, k, remote)
	if s := c.w.steal[c.Rank()]; s > 0 {
		c.w.steal[c.Rank()] = 0
		c.stats.StealTime += s.Seconds()
		t0 := c.p.Now()
		c.p.Advance(s)
		c.trace(obs.KindSteal, t0)
	}
	t0 := c.p.Now()
	c.p.Advance(vtime.FromSeconds(t))
	c.trace(obs.KindGemm, t0)
	c.stats.Flops += 2 * float64(m) * float64(n) * float64(k)
	c.stats.ComputeTime += t
}

func (c *ctx) copyCost(elems int) {
	bytes := int64(elems) * 8
	myNode := c.w.topo.NodeOf(c.Rank())
	done := c.w.net.Transfer(myNode, myNode, bytes, 0, 0)
	t0 := c.p.Now()
	c.p.Wait(done)
	c.stats.PackTime += (c.p.Now() - t0).Seconds()
	c.trace(obs.KindPack, t0)
}

func (c *ctx) Pack(src rt.Mat, dst rt.Buffer, dstOff int) {
	if err := src.Valid(); err != nil {
		panic(err)
	}
	need := src.Rows * src.Cols
	c.checkRange("Pack dst", dst.Len(), dstOff, need)
	c.copyCost(need)
}

func (c *ctx) Unpack(src rt.Buffer, srcOff int, dst rt.Mat) {
	if err := dst.Valid(); err != nil {
		panic(err)
	}
	need := dst.Rows * dst.Cols
	c.checkRange("Unpack src", src.Len(), srcOff, need)
	c.copyCost(need)
}

func (c *ctx) UnpackTranspose(src rt.Buffer, srcOff int, dst rt.Mat) {
	if err := dst.Valid(); err != nil {
		panic(err)
	}
	need := dst.Rows * dst.Cols
	c.checkRange("UnpackTranspose src", src.Len(), srcOff, need)
	c.copyCost(need)
}

func (c *ctx) WriteBuf(dst rt.Buffer, off int, vals []float64) {
	c.checkRange("WriteBuf", dst.Len(), off, len(vals))
}

func (c *ctx) ReadBuf(src rt.Buffer, off, n int) []float64 {
	c.checkRange("ReadBuf", src.Len(), off, n)
	return nil
}

var _ rt.Ctx = (*ctx)(nil)
