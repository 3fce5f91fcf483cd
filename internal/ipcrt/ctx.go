package ipcrt

// The per-worker rt.Ctx. One instance lives in each worker process and is
// handed to every job body that process runs.
//
// Memory model. Three kinds of goroutine touch float data in one worker
// process: the rank goroutine (the SPMD body), the per-connection RMA
// server goroutines (peers' Get/Put/Acc landing in this rank's segments),
// and the peer-connection reader goroutines (responses landing in this
// rank's destination buffers). Cross-PROCESS ordering is the algorithm's
// responsibility (SPMD barrier discipline, same as real ARMCI). In-PROCESS
// ordering — which the race detector checks — is built from two edges:
//
//   - completion handles: a reader goroutine writes the destination buffer,
//     then closes the handle channel; the rank goroutine reads only after
//     Wait. Channel close is the happens-before edge.
//   - the hb mutex: server goroutines hold hbMu while touching segment
//     memory, and Barrier lock/unlocks hbMu after the coordinator ack.
//     A segment write by the rank goroutine before a barrier is therefore
//     ordered before any later served remote read, and a served remote
//     write is ordered before the rank goroutine's post-barrier reads —
//     the in-process shadow of the cross-process barrier ordering.

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

const kindSteal = obs.KindSteal

// buf is a process-local float64 buffer — either LocalBuf scratch or a
// view of an mmap segment (Local/Direct).
type buf struct {
	data []float64
}

func (b *buf) Len() int { return len(b.data) }

func bdata(x rt.Buffer) []float64 {
	b, ok := x.(*buf)
	if !ok {
		panic(fmt.Sprintf("ipcrt: foreign buffer type %T", x))
	}
	return b.data
}

// ipcGlobal is the caller-facing handle of a collectively registered
// segment set; the authoritative mapping state lives in ctx.segs.
type ipcGlobal struct {
	id    int64
	sizes []int
}

func (g *ipcGlobal) LenAt(rank int) int { return g.sizes[rank] }
func (g *ipcGlobal) LD() int            { return 0 }

// segment tracks this process's mappings of one Global: its own segment
// (created at Malloc) plus lazily-opened same-node peer segments.
type segment struct {
	id    int64
	sizes []int
	maps  map[int]*segMap
}

type ipcCtx struct {
	rank int
	topo rt.Topology
	dir  string

	coord *coordClient

	// hbMu builds the in-process happens-before edges described above.
	hbMu sync.Mutex
	mbox *mailbox

	segMu sync.Mutex
	segs  map[int64]*segment
	// pooled holds collectively freed segments the coordinator parked:
	// every mapping (own and peer) stays live so a reusing Malloc pays
	// zero mmap or file-system calls.
	pooled map[int64]*segment

	peerMu sync.Mutex
	peers  map[int]*peerConn

	rec   atomic.Pointer[obs.Recorder]
	stats *rt.Stats
	start time.Time

	kernelThreads int
	directMaps    int64
	// mmapMallocs counts segment-file create+mmap calls over the process
	// lifetime (never reset): the steady-state reuse test pins it flat
	// across same-shape jobs.
	mmapMallocs int64
	// tcpPeers counts peer connections dialed over TCP (process
	// lifetime), proving the cross-domain scheme selection fired.
	tcpPeers int64
}

func newCtx(rank int, topo rt.Topology, dir string, coord *coordClient) *ipcCtx {
	return &ipcCtx{
		rank:          rank,
		topo:          topo,
		dir:           dir,
		coord:         coord,
		mbox:          newMailbox(),
		segs:          make(map[int64]*segment),
		pooled:        make(map[int64]*segment),
		peers:         make(map[int]*peerConn),
		stats:         &rt.Stats{},
		start:         time.Now(),
		kernelThreads: max(1, goruntime.GOMAXPROCS(0)/topo.NProcs),
	}
}

func float64bits(v float64) int64     { return int64(math.Float64bits(v)) }
func float64frombits(b int64) float64 { return math.Float64frombits(uint64(b)) }

func (c *ipcCtx) Rank() int         { return c.rank }
func (c *ipcCtx) Size() int         { return c.topo.NProcs }
func (c *ipcCtx) Topo() rt.Topology { return c.topo }
func (c *ipcCtx) Now() float64      { return time.Since(c.start).Seconds() }
func (c *ipcCtx) Stats() *rt.Stats  { return c.stats }

// ObsRecorder implements rt.Recorded.
func (c *ipcCtx) ObsRecorder() *obs.Recorder { return c.rec.Load() }

// SetKernelThreads implements rt.KernelTuner. The default mirrors armci's
// oversubscription guard: NProcs worker PROCESSES share this machine, so
// each rank's dgemm gets an equal share of the cores.
func (c *ipcCtx) SetKernelThreads(n int) {
	if n <= 0 {
		n = max(1, goruntime.GOMAXPROCS(0)/c.topo.NProcs)
	}
	c.kernelThreads = n
}

// DirectMaps reports how many distinct peer segments this rank has mapped
// for direct load/store access (the intra-node fast-path counter shipped
// in RankResult).
func (c *ipcCtx) DirectMaps() int64 { return c.directMaps }

// MmapMallocs reports lifetime segment-file create+mmap calls; flat across
// same-shape jobs when the segment pool is doing its job.
func (c *ipcCtx) MmapMallocs() int64 { return c.mmapMallocs }

// TCPPeers reports lifetime peer connections dialed over TCP.
func (c *ipcCtx) TCPPeers() int64 { return c.tcpPeers }

func (c *ipcCtx) spanStart() time.Time { return c.rec.Load().SpanStart() }

func (c *ipcCtx) span(k obs.Kind, t0 time.Time) { c.rec.Load().SpanEnd(c.rank, k, t0) }

func (c *ipcCtx) segPath(segID int64, rank int) string {
	return segFilePath(c.dir, segID, rank)
}

// ownData returns this rank's own float view of segID (created at Malloc,
// so present whenever the segment is registered). Safe from any goroutine.
func (c *ipcCtx) ownData(segID int64) ([]float64, bool) {
	c.segMu.Lock()
	defer c.segMu.Unlock()
	seg := c.segs[segID]
	if seg == nil {
		return nil, false
	}
	if m := seg.maps[c.rank]; m != nil {
		return m.data, true
	}
	return nil, true
}

// mapping returns the segMap of rank's segment, lazily mapping same-node
// peer files on first use (the Direct fast path). Panics outside the
// shared-memory domain — cross-node access must go through the socket.
func (c *ipcCtx) mapping(segID int64, rank int) *segMap {
	c.segMu.Lock()
	seg := c.segs[segID]
	var m *segMap
	if seg != nil {
		m = seg.maps[rank]
	}
	c.segMu.Unlock()
	if m != nil {
		return m
	}
	if seg == nil {
		panic(fmt.Sprintf("ipcrt: unknown segment %d", segID))
	}
	if !c.topo.SameDomain(c.rank, rank) {
		panic(fmt.Sprintf("ipcrt: rank %d cannot map rank %d's segment (different domains)", c.rank, rank))
	}
	m, err := mapSegment(c.segPath(segID, rank), seg.sizes[rank], false)
	if err != nil {
		panic(err)
	}
	c.directMaps++
	c.segMu.Lock()
	if prev := seg.maps[rank]; prev != nil {
		m2 := m
		c.segMu.Unlock()
		m2.unmap()
		return prev
	}
	seg.maps[rank] = m
	c.segMu.Unlock()
	return m
}

// peerAddr resolves rank's RMA address from the coordinator's table,
// picking the scheme per peer: unix inside this rank's shared-memory
// domain, TCP across domains when the peer advertised one. Without a
// table (raw-ctx tests), the conventional unix socket path.
func (c *ipcCtx) peerAddr(rank int) string {
	var table []string
	if c.coord != nil {
		table = c.coord.peerAddrs
	}
	if rank < len(table) && table[rank] != "" {
		return pickAddr(table[rank], c.topo.SameDomain(c.rank, rank))
	}
	return "unix:" + rankSockPath(c.dir, rank)
}

// peer returns the lazily-dialed RMA connection to rank (including this
// rank itself — atomics route through the owner's server unconditionally).
func (c *ipcCtx) peer(rank int) *peerConn {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	if pc := c.peers[rank]; pc != nil {
		return pc
	}
	addr := c.peerAddr(rank)
	pc, err := dialPeer(addr, rank)
	if err != nil {
		panic(err)
	}
	if schemeOf(addr) == "tcp" {
		c.tcpPeers++
	}
	c.peers[rank] = pc
	return pc
}

// ---- collective memory ----

func (c *ipcCtx) Malloc(elems int) rt.Global {
	if elems < 0 || int64(elems) > maxElems {
		panic(fmt.Sprintf("ipcrt: Malloc(%d)", elems))
	}
	segID, sizes, reused := c.coord.malloc(elems)
	var seg *segment
	if reused {
		// The coordinator matched a parked segment with this exact size
		// profile: reinstate it, mappings and all. Pool membership is
		// collective (the freeAck that parked it was broadcast), so the
		// segment must be present on every rank.
		c.segMu.Lock()
		seg = c.pooled[segID]
		delete(c.pooled, segID)
		if seg == nil {
			c.segMu.Unlock()
			panic(fmt.Sprintf("ipcrt: coordinator reused segment %d this rank never pooled", segID))
		}
		if got := seg.sizes[c.rank]; got != elems {
			c.segMu.Unlock()
			panic(fmt.Sprintf("ipcrt: pooled segment %d holds %d elems, Malloc wants %d", segID, got, elems))
		}
		c.segs[segID] = seg
		c.segMu.Unlock()
	} else {
		m, err := mapSegment(c.segPath(segID, c.rank), elems, true)
		if err != nil {
			panic(err)
		}
		c.mmapMallocs++
		seg = &segment{id: segID, sizes: sizes, maps: map[int]*segMap{c.rank: m}}
		c.segMu.Lock()
		c.segs[segID] = seg
		c.segMu.Unlock()
	}
	// Registration barrier: every rank's file exists and is sized (or its
	// pooled mappings reinstated) before anyone maps or RMAs it.
	c.Barrier()
	return &ipcGlobal{id: segID, sizes: sizes}
}

func (c *ipcCtx) Free(g rt.Global) {
	gg := g.(*ipcGlobal)
	// Collective: the barrier guarantees no rank still has ops in flight
	// against the segment before any mapping is torn down or parked.
	pooled := c.coord.free(gg.id)
	c.Barrier()
	c.segMu.Lock()
	seg := c.segs[gg.id]
	delete(c.segs, gg.id)
	if pooled && seg != nil {
		// Parked for reuse: keep the file and every mapping live. RMA
		// service for the id stops (ownData misses) until a Malloc
		// reinstates it.
		c.pooled[gg.id] = seg
		c.segMu.Unlock()
		return
	}
	c.segMu.Unlock()
	if seg == nil {
		return
	}
	for _, m := range seg.maps {
		m.unmap()
	}
	removeSegFile(c.segPath(gg.id, c.rank))
}

// freeJobSegments collectively releases what a finished job body left
// allocated — its operand Globals — so the coordinator can park them for
// the next same-shape job. The shared body does not Free (on the in-process
// engine that is three barriers for nothing), so the worker does it here.
// Ascending id is allocation order, identical on every rank, which keeps
// the collective sequence aligned.
func (c *ipcCtx) freeJobSegments() {
	c.segMu.Lock()
	live := make([]*ipcGlobal, 0, len(c.segs))
	for id, seg := range c.segs {
		live = append(live, &ipcGlobal{id: id, sizes: seg.sizes})
	}
	c.segMu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, g := range live {
		c.Free(g)
	}
}

func (c *ipcCtx) LocalBuf(elems int) rt.Buffer {
	c.stats.ScratchBytes += int64(elems) * 8
	if elems <= 0 {
		return &buf{}
	}
	return &buf{data: make([]float64, elems)}
}

func (c *ipcCtx) Local(g rt.Global) rt.Buffer {
	gg := g.(*ipcGlobal)
	return &buf{data: c.mapping(gg.id, c.rank).data}
}

func (c *ipcCtx) CanDirect(rank int) bool {
	return c.topo.SameDomain(c.rank, rank)
}

func (c *ipcCtx) Direct(g rt.Global, rank int) rt.Buffer {
	if !c.CanDirect(rank) {
		panic(fmt.Sprintf("ipcrt: rank %d cannot direct-access rank %d (different domains)", c.rank, rank))
	}
	gg := g.(*ipcGlobal)
	return &buf{data: c.mapping(gg.id, rank).data}
}

// ---- one-sided operations ----

// directGet is the intra-node load path: a memcpy out of the owner's
// mmap segment.
func (c *ipcCtx) directGet(gg *ipcGlobal, rank, off, n int, d []float64, dstOff int) {
	t0 := c.spanStart()
	src := c.mapping(gg.id, rank).data
	if off < 0 || off+n > len(src) || dstOff < 0 || dstOff+n > len(d) {
		panic(fmt.Sprintf("ipcrt: Get range [%d,%d) of %d -> [%d,%d) of %d",
			off, off+n, len(src), dstOff, dstOff+n, len(d)))
	}
	copy(d[dstOff:dstOff+n], src[off:off+n])
	c.stats.BytesShared += int64(n) * 8
	c.stats.GetsShared++
	c.span(obs.KindGet, t0)
}

func (c *ipcCtx) Get(g rt.Global, rank, off, n int, dst rt.Buffer, dstOff int) {
	if c.CanDirect(rank) {
		c.directGet(g.(*ipcGlobal), rank, off, n, bdata(dst), dstOff)
		return
	}
	c.Wait(c.NbGet(g, rank, off, n, dst, dstOff))
}

func (c *ipcCtx) NbGet(g rt.Global, rank, off, n int, dst rt.Buffer, dstOff int) rt.Handle {
	gg := g.(*ipcGlobal)
	d := bdata(dst)
	if c.CanDirect(rank) {
		c.directGet(gg, rank, off, n, d, dstOff)
		return doneHandle{}
	}
	if off < 0 || n < 0 || off+n > gg.sizes[rank] || dstOff < 0 || dstOff+n > len(d) {
		panic(fmt.Sprintf("ipcrt: NbGet range [%d,%d) of %d -> [%d,%d) of %d",
			off, off+n, gg.sizes[rank], dstOff, dstOff+n, len(d)))
	}
	c.stats.BytesRemote += int64(n) * 8
	c.stats.GetsRemote++
	h := newOpHandle()
	dstSlice := d[dstOff : dstOff+n]
	rec := c.rec.Load()
	lane := c.rank
	t0 := time.Now()
	c.peer(rank).issue(
		&frame{Op: opGet, P: [5]int64{gg.id, int64(off), int64(n)}},
		&pendingOp{h: h, complete: func(f *frame) error {
			if len(f.Body) != n*8 {
				return fmt.Errorf("ipcrt: get of %d elements returned %d bytes", n, len(f.Body))
			}
			copyFloats(dstSlice, f.Body)
			if rec != nil {
				rec.RecordWall(lane, obs.KindGet, t0, time.Now())
			}
			return nil
		}},
	)
	return h
}

func (c *ipcCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	gg := g.(*ipcGlobal)
	d := bdata(dst)
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		panic(fmt.Sprintf("ipcrt: NbGetSub malformed region %dx%d ld=%d off=%d", rows, cols, ld, off))
	}
	if dstOff < 0 || dstOff+rows*cols > len(d) {
		panic(fmt.Sprintf("ipcrt: NbGetSub dst [%d,%d) of %d", dstOff, dstOff+rows*cols, len(d)))
	}
	if c.CanDirect(rank) {
		t0 := c.spanStart()
		src := c.mapping(gg.id, rank).data
		if rows > 0 && cols > 0 {
			if last := off + (rows-1)*ld + cols; last > len(src) {
				panic(fmt.Sprintf("ipcrt: NbGetSub region ends at %d of %d", last, len(src)))
			}
		}
		for r := 0; r < rows; r++ {
			copy(d[dstOff+r*cols:dstOff+(r+1)*cols], src[off+r*ld:off+r*ld+cols])
		}
		c.stats.BytesShared += int64(rows*cols) * 8
		c.stats.GetsShared++
		c.span(obs.KindGet, t0)
		return doneHandle{}
	}
	n := rows * cols
	c.stats.BytesRemote += int64(n) * 8
	c.stats.GetsRemote++
	h := newOpHandle()
	dstSlice := d[dstOff : dstOff+n]
	rec := c.rec.Load()
	lane := c.rank
	t0 := time.Now()
	c.peer(rank).issue(
		&frame{Op: opGetSub, P: [5]int64{gg.id, int64(off), int64(ld), int64(rows), int64(cols)}},
		&pendingOp{h: h, complete: func(f *frame) error {
			if len(f.Body) != n*8 {
				return fmt.Errorf("ipcrt: get-sub of %d elements returned %d bytes", n, len(f.Body))
			}
			copyFloats(dstSlice, f.Body)
			if rec != nil {
				rec.RecordWall(lane, obs.KindGet, t0, time.Now())
			}
			return nil
		}},
	)
	return h
}

func (c *ipcCtx) Put(src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	c.Wait(c.NbPut(src, srcOff, n, g, rank, off))
}

func (c *ipcCtx) NbPut(src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) rt.Handle {
	gg := g.(*ipcGlobal)
	s := bdata(src)
	if srcOff < 0 || n < 0 || srcOff+n > len(s) || off < 0 || off+n > gg.sizes[rank] {
		panic(fmt.Sprintf("ipcrt: Put range [%d,%d) of %d -> [%d,%d) of %d",
			srcOff, srcOff+n, len(s), off, off+n, gg.sizes[rank]))
	}
	c.stats.Puts++
	if c.CanDirect(rank) {
		t0 := c.spanStart()
		d := c.mapping(gg.id, rank).data
		copy(d[off:off+n], s[srcOff:srcOff+n])
		c.stats.BytesShared += int64(n) * 8
		c.span(obs.KindPut, t0)
		return doneHandle{}
	}
	c.stats.BytesRemote += int64(n) * 8
	h := newOpHandle()
	rec := c.rec.Load()
	lane := c.rank
	t0 := time.Now()
	c.peer(rank).issue(
		&frame{Op: opPut, P: [5]int64{gg.id, int64(off)}, Body: floatBytes(s[srcOff : srcOff+n])},
		&pendingOp{h: h, complete: func(f *frame) error {
			if rec != nil {
				rec.RecordWall(lane, obs.KindPut, t0, time.Now())
			}
			return nil
		}},
	)
	return h
}

func (c *ipcCtx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	gg := g.(*ipcGlobal)
	s := bdata(src)
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		panic(fmt.Sprintf("ipcrt: NbPutSub malformed region %dx%d ld=%d off=%d", rows, cols, ld, off))
	}
	n := rows * cols
	if srcOff < 0 || srcOff+n > len(s) {
		panic(fmt.Sprintf("ipcrt: NbPutSub src [%d,%d) of %d", srcOff, srcOff+n, len(s)))
	}
	c.stats.Puts++
	if c.CanDirect(rank) {
		t0 := c.spanStart()
		d := c.mapping(gg.id, rank).data
		if rows > 0 && cols > 0 {
			if last := off + (rows-1)*ld + cols; last > len(d) {
				panic(fmt.Sprintf("ipcrt: NbPutSub region ends at %d of %d", last, len(d)))
			}
		}
		for r := 0; r < rows; r++ {
			copy(d[off+r*ld:off+r*ld+cols], s[srcOff+r*cols:srcOff+(r+1)*cols])
		}
		c.stats.BytesShared += int64(n) * 8
		c.span(obs.KindPut, t0)
		return doneHandle{}
	}
	c.stats.BytesRemote += int64(n) * 8
	h := newOpHandle()
	rec := c.rec.Load()
	lane := c.rank
	t0 := time.Now()
	c.peer(rank).issue(
		&frame{Op: opPutSub, P: [5]int64{gg.id, int64(off), int64(ld), int64(rows), int64(cols)},
			Body: floatBytes(s[srcOff : srcOff+n])},
		&pendingOp{h: h, complete: func(f *frame) error {
			if rec != nil {
				rec.RecordWall(lane, obs.KindPut, t0, time.Now())
			}
			return nil
		}},
	)
	return h
}

// Acc routes through the owner's RMA server even locally: the server's hb
// mutex is the single serialization point, giving ARMCI's Acc-vs-Acc
// atomicity across processes (a local fast path would race a concurrent
// remote Acc landing through the server).
func (c *ipcCtx) Acc(alpha float64, src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	gg := g.(*ipcGlobal)
	s := bdata(src)
	if srcOff < 0 || n < 0 || srcOff+n > len(s) || off < 0 || off+n > gg.sizes[rank] {
		panic(fmt.Sprintf("ipcrt: Acc range [%d,%d) of %d -> [%d,%d) of %d",
			srcOff, srcOff+n, len(s), off, off+n, gg.sizes[rank]))
	}
	t0 := c.spanStart()
	h := newOpHandle()
	c.peer(rank).issue(
		&frame{Op: opAcc, P: [5]int64{gg.id, int64(off), float64bits(alpha)},
			Body: floatBytes(s[srcOff : srcOff+n])},
		&pendingOp{h: h, complete: func(f *frame) error { return nil }},
	)
	c.waitHandle(h)
	c.stats.Puts++
	if c.CanDirect(rank) {
		c.stats.BytesShared += int64(n) * 8
	} else {
		c.stats.BytesRemote += int64(n) * 8
	}
	c.span(obs.KindPut, t0)
}

func (c *ipcCtx) FetchAdd(g rt.Global, rank, off int, delta float64) float64 {
	gg := g.(*ipcGlobal)
	if off < 0 || off >= gg.sizes[rank] {
		panic(fmt.Sprintf("ipcrt: FetchAdd offset %d of %d", off, gg.sizes[rank]))
	}
	h := newOpHandle()
	var old float64
	c.peer(rank).issue(
		&frame{Op: opFetchAdd, P: [5]int64{gg.id, int64(off), float64bits(delta)}},
		&pendingOp{h: h, complete: func(f *frame) error {
			old = float64frombits(f.P[0])
			return nil
		}},
	)
	c.waitHandle(h)
	c.stats.Puts++
	if c.CanDirect(rank) {
		c.stats.BytesShared += 8
	} else {
		c.stats.BytesRemote += 8
	}
	return old
}

// waitHandle blocks without stats/span accounting (internal round trips).
func (c *ipcCtx) waitHandle(h *opHandle) {
	<-h.done
	if h.err != nil {
		panic(h.err)
	}
}

func (c *ipcCtx) Wait(h rt.Handle) {
	switch v := h.(type) {
	case doneHandle:
	case *opHandle:
		t0 := time.Now()
		<-v.done
		if v.err != nil {
			panic(v.err)
		}
		c.stats.WaitTime += time.Since(t0).Seconds()
		c.span(obs.KindWait, t0)
	default:
		panic(fmt.Sprintf("ipcrt: Wait on foreign handle %T", h))
	}
}

// ---- two-sided operations ----

func (c *ipcCtx) Send(to, tag int, src rt.Buffer, off, n int) {
	s := bdata(src)
	if off < 0 || n < 0 || off+n > len(s) {
		panic(fmt.Sprintf("ipcrt: Send range [%d,%d) of %d", off, off+n, len(s)))
	}
	c.stats.Msgs++
	c.stats.MsgBytes += int64(n) * 8
	t0 := c.spanStart()
	err := c.peer(to).send(&frame{Op: opMsg, P: [5]int64{int64(c.rank), int64(tag)},
		Body: floatBytes(s[off : off+n])})
	if err != nil {
		panic(err)
	}
	c.span(obs.KindCopy, t0)
}

func (c *ipcCtx) Isend(to, tag int, src rt.Buffer, off, n int) rt.Handle {
	// The send is eager: the frame is on the wire when Send returns, and
	// the receiver's mailbox buffers it — the armci eager-send contract.
	c.Send(to, tag, src, off, n)
	return doneHandle{}
}

func (c *ipcCtx) Irecv(from, tag int, dst rt.Buffer, off, n int) rt.Handle {
	d := bdata(dst)
	if off < 0 || n < 0 || off+n > len(d) {
		panic(fmt.Sprintf("ipcrt: Irecv range [%d,%d) of %d", off, off+n, len(d)))
	}
	return c.mbox.recv(from, tag, d[off:off+n])
}

func (c *ipcCtx) Recv(from, tag int, dst rt.Buffer, off, n int) {
	c.Wait(c.Irecv(from, tag, dst, off, n))
}

func (c *ipcCtx) Barrier() {
	t0 := time.Now()
	c.coord.barrier()
	// In-process shadow of the cross-process barrier: pairs with the RMA
	// server's per-op critical sections (see the package memory model).
	c.hbMu.Lock()
	c.hbMu.Unlock() //nolint:staticcheck // empty critical section is the point
	c.stats.BarrierTime += time.Since(t0).Seconds()
	c.span(obs.KindBarrier, t0)
}

// ---- compute ----

func (c *ipcCtx) matView(m rt.Mat) *mat.Matrix {
	if err := m.Valid(); err != nil {
		panic(err)
	}
	d := bdata(m.Buf)
	end := m.Off
	if m.Rows > 0 && m.Cols > 0 {
		end = m.Off + (m.Rows-1)*m.LD + m.Cols
	}
	return &mat.Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.LD, Data: d[m.Off:end]}
}

func (c *ipcCtx) Gemm(alpha float64, a, b rt.Mat, beta float64, cm rt.Mat) {
	t0 := time.Now()
	am, bm, cmm := c.matView(a), c.matView(b), c.matView(cm)
	var err error
	if c.kernelThreads > 1 {
		err = mat.GemmParallel(c.kernelThreads, a.Trans, b.Trans, alpha, am, bm, beta, cmm)
	} else {
		err = mat.Gemm(a.Trans, b.Trans, alpha, am, bm, beta, cmm)
	}
	if err != nil {
		panic(fmt.Sprintf("ipcrt: Gemm: %v", err))
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

func (c *ipcCtx) Pack(src rt.Mat, dst rt.Buffer, dstOff int) {
	t0 := time.Now()
	sm := c.matView(src)
	d := bdata(dst)
	need := src.Rows * src.Cols
	if dstOff < 0 || dstOff+need > len(d) {
		panic(fmt.Sprintf("ipcrt: Pack needs [%d,%d) of %d", dstOff, dstOff+need, len(d)))
	}
	mat.PackInto(d[dstOff:dstOff+need], sm, 0, 0, src.Rows, src.Cols)
	c.stats.PackTime += time.Since(t0).Seconds()
	c.span(obs.KindPack, t0)
}

func (c *ipcCtx) Unpack(src rt.Buffer, srcOff int, dst rt.Mat) {
	t0 := time.Now()
	dm := c.matView(dst)
	s := bdata(src)
	need := dst.Rows * dst.Cols
	if srcOff < 0 || srcOff+need > len(s) {
		panic(fmt.Sprintf("ipcrt: Unpack needs [%d,%d) of %d", srcOff, srcOff+need, len(s)))
	}
	mat.UnpackFrom(dm, s[srcOff:srcOff+need], 0, 0, dst.Rows, dst.Cols)
	c.stats.PackTime += time.Since(t0).Seconds()
	c.span(obs.KindPack, t0)
}

func (c *ipcCtx) UnpackTranspose(src rt.Buffer, srcOff int, dst rt.Mat) {
	t0 := time.Now()
	dm := c.matView(dst)
	s := bdata(src)
	need := dst.Rows * dst.Cols
	if srcOff < 0 || srcOff+need > len(s) {
		panic(fmt.Sprintf("ipcrt: UnpackTranspose needs [%d,%d) of %d", srcOff, srcOff+need, len(s)))
	}
	mat.UnpackTransposeFrom(dm, s[srcOff:srcOff+need], 0, 0, dst.Rows, dst.Cols)
	c.stats.PackTime += time.Since(t0).Seconds()
	c.span(obs.KindPack, t0)
}

// ChecksumRegion implements faults.SourceChecksummer: same-domain regions
// are checksummed straight off the mmap segment, cross-node regions are
// checksummed BY THE OWNER (opChecksum) so the source stays authoritative
// even when the transport corrupts payloads.
func (c *ipcCtx) ChecksumRegion(g rt.Global, rank, off, ld, rows, cols int) uint64 {
	gg := g.(*ipcGlobal)
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		panic(fmt.Sprintf("ipcrt: ChecksumRegion malformed region %dx%d ld=%d off=%d", rows, cols, ld, off))
	}
	if c.CanDirect(rank) {
		src := c.mapping(gg.id, rank).data
		if rows > 0 && cols > 0 {
			if last := off + (rows-1)*ld + cols; last > len(src) {
				panic(fmt.Sprintf("ipcrt: ChecksumRegion region ends at %d of %d", last, len(src)))
			}
		}
		return checksumRegion(src, off, ld, rows, cols)
	}
	h := newOpHandle()
	var sum uint64
	c.peer(rank).issue(
		&frame{Op: opChecksum, P: [5]int64{gg.id, int64(off), int64(ld), int64(rows), int64(cols)}},
		&pendingOp{h: h, complete: func(f *frame) error {
			sum = uint64(f.P[0])
			return nil
		}},
	)
	c.waitHandle(h)
	return sum
}

// checksumRegion folds a strided region with the shared rt checksum.
func checksumRegion(src []float64, off, ld, rows, cols int) uint64 {
	h := rt.ChecksumSeed()
	for r := 0; r < rows; r++ {
		for _, v := range src[off+r*ld : off+r*ld+cols] {
			h = rt.ChecksumAdd(h, v)
		}
	}
	return h
}

// ---- harness accessors ----

func (c *ipcCtx) WriteBuf(dst rt.Buffer, off int, vals []float64) {
	d := bdata(dst)
	if off < 0 || off+len(vals) > len(d) {
		panic(fmt.Sprintf("ipcrt: WriteBuf range [%d,%d) of %d", off, off+len(vals), len(d)))
	}
	copy(d[off:], vals)
}

func (c *ipcCtx) ReadBuf(src rt.Buffer, off, n int) []float64 {
	s := bdata(src)
	if off < 0 || off+n > len(s) {
		panic(fmt.Sprintf("ipcrt: ReadBuf range [%d,%d) of %d", off, off+n, len(s)))
	}
	out := make([]float64, n)
	copy(out, s[off:off+n])
	return out
}

// closePeers tears down the RMA client connections (worker shutdown).
func (c *ipcCtx) closePeers() {
	c.peerMu.Lock()
	peers := c.peers
	c.peers = make(map[int]*peerConn)
	c.peerMu.Unlock()
	for _, pc := range peers {
		pc.close()
	}
}

var (
	_ rt.Ctx         = (*ipcCtx)(nil)
	_ rt.KernelTuner = (*ipcCtx)(nil)
	_ rt.Recorded    = (*ipcCtx)(nil)
)
