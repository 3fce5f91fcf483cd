package ipcrt

// The per-worker rt.Ctx. One instance lives in each worker process and is
// handed to every job body that process runs.
//
// Memory model. Three kinds of goroutine touch float data in one worker
// process: the rank goroutine (the SPMD body), the per-connection RMA
// server goroutines (peers' gets, puts and Accs landing in this rank's segments),
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
	"sort"
	"sync"
	"time"

	"srumma/internal/armci"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

const kindSteal = obs.KindSteal

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

// ipcCtx embeds the real engine's local half (armci.LocalOps: scratch,
// dgemm, pack, the strided row copy, accounting, spans) — a worker process
// computes exactly like a goroutine rank — and adds what being a process
// means: mapped segments, peer sockets, the coordinator.
type ipcCtx struct {
	armci.LocalOps
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

	start time.Time

	directMaps int64
	// mmapMallocs counts segment-file create+mmap calls over the process
	// lifetime (never reset): the steady-state reuse test pins it flat
	// across same-shape jobs.
	mmapMallocs int64
	// tcpPeers counts peer connections dialed over TCP (process
	// lifetime), proving the cross-domain scheme selection fired.
	tcpPeers int64
}

func newCtx(rank int, topo rt.Topology, dir string, coord *coordClient) *ipcCtx {
	c := &ipcCtx{
		topo:   topo,
		dir:    dir,
		coord:  coord,
		mbox:   newMailbox(),
		segs:   make(map[int64]*segment),
		pooled: make(map[int64]*segment),
		peers:  make(map[int]*peerConn),
		start:  time.Now(),
	}
	// The default kernel thread count is armci's oversubscription guard:
	// NProcs worker PROCESSES share this machine as NProcs goroutines would.
	c.Init(rank, topo.NProcs)
	return c
}

func float64bits(v float64) int64     { return int64(math.Float64bits(v)) }
func float64frombits(b int64) float64 { return math.Float64frombits(uint64(b)) }

func (c *ipcCtx) Size() int         { return c.topo.NProcs }
func (c *ipcCtx) Topo() rt.Topology { return c.topo }
func (c *ipcCtx) Now() float64      { return time.Since(c.start).Seconds() }

// DirectMaps reports how many distinct peer segments this rank has mapped
// for direct load/store access (the intra-node fast-path counter shipped
// in RankResult).
func (c *ipcCtx) DirectMaps() int64 { return c.directMaps }

// MmapMallocs reports lifetime segment-file create+mmap calls; flat across
// same-shape jobs when the segment pool is doing its job.
func (c *ipcCtx) MmapMallocs() int64 { return c.mmapMallocs }

// TCPPeers reports lifetime peer connections dialed over TCP.
func (c *ipcCtx) TCPPeers() int64 { return c.tcpPeers }

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
	if m := seg.maps[c.Rank()]; m != nil {
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
	if !c.topo.SameDomain(c.Rank(), rank) {
		panic(fmt.Sprintf("ipcrt: rank %d cannot map rank %d's segment (different domains)", c.Rank(), rank))
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
		return pickAddr(table[rank], c.topo.SameDomain(c.Rank(), rank))
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
		if got := seg.sizes[c.Rank()]; got != elems {
			c.segMu.Unlock()
			panic(fmt.Sprintf("ipcrt: pooled segment %d holds %d elems, Malloc wants %d", segID, got, elems))
		}
		c.segs[segID] = seg
		c.segMu.Unlock()
	} else {
		m, err := mapSegment(c.segPath(segID, c.Rank()), elems, true)
		if err != nil {
			panic(err)
		}
		c.mmapMallocs++
		seg = &segment{id: segID, sizes: sizes, maps: map[int]*segMap{c.Rank(): m}}
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
	removeSegFile(c.segPath(gg.id, c.Rank()))
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

func (c *ipcCtx) Local(g rt.Global) rt.Buffer {
	gg := g.(*ipcGlobal)
	return armci.Segment(c.mapping(gg.id, c.Rank()).data)
}

func (c *ipcCtx) CanDirect(rank int) bool {
	return c.topo.SameDomain(c.Rank(), rank)
}

func (c *ipcCtx) Direct(g rt.Global, rank int) rt.Buffer {
	if !c.CanDirect(rank) {
		panic(fmt.Sprintf("ipcrt: rank %d cannot direct-access rank %d (different domains)", c.Rank(), rank))
	}
	gg := g.(*ipcGlobal)
	return armci.Segment(c.mapping(gg.id, rank).data)
}

// ---- one-sided operations ----

// remote issues one strided RMA request to rank's owner process and returns
// its handle; land, when non-nil, runs on the peer connection's reader
// goroutine with the response body before the handle completes.
func (c *ipcCtx) remote(f *frame, rank int, kind obs.Kind, land func(body []byte) error) rt.Handle {
	h := newOpHandle()
	rec, lane, t0 := c.ObsRecorder(), c.Rank(), time.Now()
	c.peer(rank).issue(f, &pendingOp{h: h, complete: func(f *frame) error {
		if land != nil {
			if err := land(f.Body); err != nil {
				return err
			}
		}
		if rec != nil {
			rec.RecordWall(lane, kind, t0, time.Now())
		}
		return nil
	}})
	return h
}

// NbGetSub: inside the node a memcpy out of the owner's mmap segment (the
// local half's GetRegion), across nodes an opGetSub to the owner's server.
func (c *ipcCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	gg := g.(*ipcGlobal)
	if c.CanDirect(rank) {
		c.GetRegion(c.mapping(gg.id, rank).data, true, off, ld, rows, cols, dst, dstOff)
		return doneHandle{}
	}
	rt.MustRegion(gg.sizes[rank], off, ld, rows, cols)
	n := rows * cols
	dstSlice := armci.Window("NbGetSub dst", dst, dstOff, n)
	c.Stats().BytesRemote += int64(n) * 8
	c.Stats().GetsRemote++
	return c.remote(&frame{Op: opGetSub, P: [5]int64{gg.id, int64(off), int64(ld), int64(rows), int64(cols)}},
		rank, obs.KindGet, func(body []byte) error {
			if len(body) != n*8 {
				return fmt.Errorf("ipcrt: get-sub of %d elements returned %d bytes", n, len(body))
			}
			copyFloats(dstSlice, body)
			return nil
		})
}

func (c *ipcCtx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	gg := g.(*ipcGlobal)
	if c.CanDirect(rank) {
		c.PutRegion(src, srcOff, c.mapping(gg.id, rank).data, true, off, ld, rows, cols)
		return doneHandle{}
	}
	rt.MustRegion(gg.sizes[rank], off, ld, rows, cols)
	payload := armci.Window("NbPutSub src", src, srcOff, rows*cols)
	c.Stats().Puts++
	c.Stats().BytesRemote += int64(len(payload)) * 8
	return c.remote(&frame{Op: opPutSub, P: [5]int64{gg.id, int64(off), int64(ld), int64(rows), int64(cols)},
		Body: floatBytes(payload)}, rank, obs.KindPut, nil)
}

// Acc routes through the owner's RMA server even locally: the server's hb
// mutex is the single serialization point, giving ARMCI's Acc-vs-Acc
// atomicity across processes (a local fast path would race a concurrent
// remote Acc landing through the server).
func (c *ipcCtx) Acc(alpha float64, src rt.Buffer, srcOff, n int, g rt.Global, rank, off int) {
	gg := g.(*ipcGlobal)
	s := armci.Floats(src)
	if srcOff < 0 || n < 0 || srcOff+n > len(s) || off < 0 || off+n > gg.sizes[rank] {
		panic(fmt.Sprintf("ipcrt: Acc range [%d,%d) of %d -> [%d,%d) of %d",
			srcOff, srcOff+n, len(s), off, off+n, gg.sizes[rank]))
	}
	t0 := c.SpanStart()
	h := newOpHandle()
	c.peer(rank).issue(
		&frame{Op: opAcc, P: [5]int64{gg.id, int64(off), float64bits(alpha)},
			Body: floatBytes(s[srcOff : srcOff+n])},
		&pendingOp{h: h, complete: func(f *frame) error { return nil }},
	)
	c.waitHandle(h)
	c.Stats().Puts++
	if c.CanDirect(rank) {
		c.Stats().BytesShared += int64(n) * 8
	} else {
		c.Stats().BytesRemote += int64(n) * 8
	}
	c.Span(obs.KindPut, t0)
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
	c.Stats().Puts++
	if c.CanDirect(rank) {
		c.Stats().BytesShared += 8
	} else {
		c.Stats().BytesRemote += 8
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
		c.Stats().WaitTime += time.Since(t0).Seconds()
		c.Span(obs.KindWait, t0)
	default:
		panic(fmt.Sprintf("ipcrt: Wait on foreign handle %T", h))
	}
}

// ---- two-sided operations ----

func (c *ipcCtx) Send(to, tag int, src rt.Buffer, off, n int) {
	s := armci.Floats(src)
	if off < 0 || n < 0 || off+n > len(s) {
		panic(fmt.Sprintf("ipcrt: Send range [%d,%d) of %d", off, off+n, len(s)))
	}
	c.Stats().Msgs++
	c.Stats().MsgBytes += int64(n) * 8
	t0 := c.SpanStart()
	err := c.peer(to).send(&frame{Op: opMsg, P: [5]int64{int64(c.Rank()), int64(tag)},
		Body: floatBytes(s[off : off+n])})
	if err != nil {
		panic(err)
	}
	c.Span(obs.KindCopy, t0)
}

func (c *ipcCtx) Isend(to, tag int, src rt.Buffer, off, n int) rt.Handle {
	// The send is eager: the frame is on the wire when Send returns, and
	// the receiver's mailbox buffers it — the armci eager-send contract.
	c.Send(to, tag, src, off, n)
	return doneHandle{}
}

func (c *ipcCtx) Irecv(from, tag int, dst rt.Buffer, off, n int) rt.Handle {
	d := armci.Floats(dst)
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
	c.Stats().BarrierTime += time.Since(t0).Seconds()
	c.Span(obs.KindBarrier, t0)
}

// ChecksumRegion implements faults.SourceChecksummer: same-domain regions
// are checksummed straight off the mmap segment, cross-node regions are
// checksummed BY THE OWNER (opChecksum) so the source stays authoritative
// even when the transport corrupts payloads.
func (c *ipcCtx) ChecksumRegion(g rt.Global, rank, off, ld, rows, cols int) uint64 {
	gg := g.(*ipcGlobal)
	if c.CanDirect(rank) {
		src := c.mapping(gg.id, rank).data
		rt.MustRegion(len(src), off, ld, rows, cols)
		return armci.SumRegion(src, off, ld, rows, cols)
	}
	rt.MustRegion(gg.sizes[rank], off, ld, rows, cols)
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
	_ rt.Ctx            = (*ipcCtx)(nil)
	_ rt.KernelTuner    = (*ipcCtx)(nil)
	_ rt.BufferReleaser = (*ipcCtx)(nil)
	_ rt.Recorded       = (*ipcCtx)(nil)
)
