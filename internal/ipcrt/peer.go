package ipcrt

// Peer-to-peer one-sided RMA. Every worker listens on a unix-domain socket
// (rank<i>.sock in the run directory); a rank needing cross-node data
// dials the owner lazily and keeps one pipelined connection per peer:
//
//   - The requesting rank goroutine writes request frames tagged with a
//     per-connection sequence number and registers a pending completion.
//     NbGetSub therefore really is nonblocking — the call returns once the
//     64-byte request header is on the wire.
//   - A per-connection reader goroutine matches responses to pending ops
//     by sequence number, lands the payload in the destination buffer and
//     completes the handle (the channel close publishes the buffer to the
//     waiting rank goroutine).
//   - On the owning side, one goroutine per inbound connection serves
//     requests sequentially against the owner's own mmap segment, under
//     the process-wide hb mutex (see ctx.go for the memory model).
//
// Atomics (Acc, FetchAdd) always go through the owner's socket — even from
// the owner itself or a same-node peer — so the owner's server is the one
// serialization point, exactly like ARMCI routing atomics through the
// owning node's data server.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"srumma/internal/armci"
	"srumma/internal/rt"
)

// Addresses are scheme-prefixed ("unix:/path", "tcp:host:port"); a rank's
// address-table entry may list several, "|"-separated, in which case the
// dialer picks by scheme (see pickAddr).

// schemeOf splits the scheme off a single address.
func schemeOf(addr string) string {
	if i := strings.IndexByte(addr, ':'); i > 0 {
		return addr[:i]
	}
	return ""
}

// dialAddr connects to one scheme-prefixed address.
func dialAddr(addr string) (net.Conn, error) {
	i := strings.IndexByte(addr, ':')
	if i <= 0 || i == len(addr)-1 {
		return nil, fmt.Errorf("ipcrt: malformed address %q", addr)
	}
	scheme, rest := addr[:i], addr[i+1:]
	switch scheme {
	case "unix", "tcp":
		return net.Dial(scheme, rest)
	}
	return nil, fmt.Errorf("ipcrt: unsupported address scheme %q", scheme)
}

// pickAddr selects the transport for one peer from its advertised entry:
// shared-memory-domain peers get the unix socket (cheapest local path),
// cross-domain peers get TCP when the peer offers it. Falls back to the
// first address either way.
func pickAddr(entry string, sameDomain bool) string {
	addrs := strings.Split(entry, "|")
	want := "tcp"
	if sameDomain {
		want = "unix"
	}
	for _, a := range addrs {
		if schemeOf(a) == want {
			return a
		}
	}
	return addrs[0]
}

// doneHandle is an already-completed nonblocking operation (direct-path
// gets and puts complete eagerly, like armci's single-address-space ops).
type doneHandle struct{}

func (doneHandle) Done() bool { return true }

// opHandle completes when the reader goroutine lands the response (or the
// transport dies). err is written before the channel close and read only
// after it, so the close is the publication point.
type opHandle struct {
	done chan struct{}
	once sync.Once
	err  error
}

func newOpHandle() *opHandle { return &opHandle{done: make(chan struct{})} }

func (h *opHandle) finish() { h.once.Do(func() { close(h.done) }) }

func (h *opHandle) fail(err error) {
	h.once.Do(func() {
		h.err = err
		close(h.done)
	})
}

func (h *opHandle) Done() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// pendingOp is one in-flight request: complete runs on the reader
// goroutine with the response frame, then the handle is finished.
type pendingOp struct {
	h        *opHandle
	complete func(f *frame) error
}

// peerConn is one requester->owner connection with pipelined requests.
type peerConn struct {
	to   int
	conn net.Conn

	wmu sync.Mutex // serializes request writes

	pmu     sync.Mutex
	seq     uint64
	pending map[uint64]*pendingOp
	dead    error
}

func dialPeer(addr string, to int) (*peerConn, error) {
	conn, err := dialAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("ipcrt: dialing rank %d at %s: %w", to, addr, err)
	}
	pc := &peerConn{to: to, conn: conn, pending: make(map[uint64]*pendingOp)}
	go pc.readLoop()
	return pc, nil
}

// issue registers p, stamps the frame with a fresh sequence number and
// writes it. Returns an error only when the connection is already dead;
// transport failures after registration fail the handle asynchronously.
func (pc *peerConn) issue(f *frame, p *pendingOp) {
	pc.pmu.Lock()
	if pc.dead != nil {
		err := pc.dead
		pc.pmu.Unlock()
		p.h.fail(err)
		return
	}
	pc.seq++
	f.Seq = pc.seq
	pc.pending[f.Seq] = p
	pc.pmu.Unlock()

	pc.wmu.Lock()
	err := writeFrame(pc.conn, f)
	pc.wmu.Unlock()
	if err != nil {
		pc.die(fmt.Errorf("ipcrt: writing to rank %d: %w", pc.to, err))
	}
}

// send writes a one-way frame (opMsg) with no completion.
func (pc *peerConn) send(f *frame) error {
	pc.pmu.Lock()
	if pc.dead != nil {
		err := pc.dead
		pc.pmu.Unlock()
		return err
	}
	pc.pmu.Unlock()
	pc.wmu.Lock()
	err := writeFrame(pc.conn, f)
	pc.wmu.Unlock()
	if err != nil {
		pc.die(fmt.Errorf("ipcrt: writing to rank %d: %w", pc.to, err))
	}
	return err
}

func (pc *peerConn) readLoop() {
	for {
		f, err := readFrame(pc.conn)
		if err != nil {
			pc.die(fmt.Errorf("ipcrt: connection to rank %d lost: %w", pc.to, err))
			return
		}
		pc.pmu.Lock()
		p := pc.pending[f.Seq]
		delete(pc.pending, f.Seq)
		pc.pmu.Unlock()
		if p == nil {
			pc.die(fmt.Errorf("ipcrt: rank %d sent unmatched response seq %d", pc.to, f.Seq))
			return
		}
		if f.Op == opErr {
			p.h.fail(fmt.Errorf("ipcrt: rank %d: %s", pc.to, f.Body))
			continue
		}
		if err := p.complete(&f); err != nil {
			p.h.fail(err)
			continue
		}
		p.h.finish()
	}
}

// die fails every in-flight op and poisons the connection.
func (pc *peerConn) die(err error) {
	pc.pmu.Lock()
	if pc.dead == nil {
		pc.dead = err
	}
	stuck := pc.pending
	pc.pending = make(map[uint64]*pendingOp)
	pc.pmu.Unlock()
	pc.conn.Close()
	for _, p := range stuck {
		p.h.fail(err)
	}
}

func (pc *peerConn) close() { pc.die(fmt.Errorf("ipcrt: connection to rank %d closed", pc.to)) }

// ---- owner side ----

// serveRMA accepts peer connections for the lifetime of the worker.
func (c *ipcCtx) serveRMA(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go c.serveRMAConn(conn)
	}
}

// serveRMAConn serves one requester sequentially. Responses carry the
// request's sequence number; opMsg is one-way.
func (c *ipcCtx) serveRMAConn(conn net.Conn) {
	defer conn.Close()
	for {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		resp, oneway := c.handleRMA(&f)
		if oneway {
			continue
		}
		resp.Seq = f.Seq
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// handleRMA executes one request against this worker's own segments. Data
// access happens under the hb mutex (in-process happens-before edges with
// the rank goroutine; see ctx.go), and payloads are copied inside the
// critical section so the socket write happens outside it.
func (c *ipcCtx) handleRMA(f *frame) (resp *frame, oneway bool) {
	fail := func(format string, args ...any) (*frame, bool) {
		return &frame{Op: opErr, Body: []byte(fmt.Sprintf(format, args...))}, false
	}
	if f.Op == opMsg {
		payload := make([]float64, len(f.Body)/8)
		copyFloats(payload, f.Body)
		c.mbox.deposit(int(f.P[0]), int(f.P[1]), payload)
		return nil, true
	}

	// The maps container is mutated by the rank goroutine (lazy same-node
	// peer mappings), so the read of this rank's own entry must hold segMu
	// like every other access.
	own, ok := c.ownData(f.P[0])
	if !ok {
		return fail("unknown segment %d", f.P[0])
	}
	off := int(f.P[1])
	t0 := time.Now()

	var ld, rows, cols int
	switch f.Op {
	case opGetSub, opPutSub:
		ld, rows, cols = int(f.P[2]), int(f.P[3]), int(f.P[4])
		if err := rt.CheckRegion(len(own), off, ld, rows, cols); err != nil {
			return fail("%v: %v", f.Op, err)
		}
	}
	switch f.Op {
	case opGetSub:
		out := make([]float64, rows*cols)
		c.hbMu.Lock()
		armci.PackRegion(out, own, off, ld, rows, cols)
		c.hbMu.Unlock()
		c.serveSpan(t0)
		return &frame{Op: opAck, Body: floatBytes(out)}, false

	case opPutSub: // validateFrame held the body to exactly the region
		c.hbMu.Lock()
		for r := 0; r < rows && cols > 0; r++ { // no columns: no row starts to trust
			copyFloats(own[off+r*ld:off+r*ld+cols], f.Body[r*cols*8:(r+1)*cols*8])
		}
		c.hbMu.Unlock()
		c.serveSpan(t0)
		return &frame{Op: opAck}, false

	case opAcc:
		n := len(f.Body) / 8
		if off+n > len(own) {
			return fail("acc [%d,%d) of %d", off, off+n, len(own))
		}
		alpha := float64frombits(f.P[2])
		vals := make([]float64, n)
		copyFloats(vals, f.Body)
		c.hbMu.Lock()
		for i, v := range vals {
			own[off+i] += alpha * v
		}
		c.hbMu.Unlock()
		c.serveSpan(t0)
		return &frame{Op: opAck}, false

	case opFetchAdd:
		if off >= len(own) {
			return fail("fetch-add offset %d of %d", off, len(own))
		}
		delta := float64frombits(f.P[2])
		c.hbMu.Lock()
		old := own[off]
		own[off] = old + delta
		c.hbMu.Unlock()
		return &frame{Op: opAck, P: [5]int64{float64bits(old)}}, false
	}
	return fail("op %v is not a peer RMA request", f.Op)
}

// serveSpan records owner CPU spent servicing a remote op (the paper's
// "data server" cost) when tracing is on.
func (c *ipcCtx) serveSpan(t0 time.Time) {
	if rec := c.ObsRecorder(); rec != nil {
		rec.RecordWall(c.Rank(), kindSteal, t0, time.Now())
	}
}
