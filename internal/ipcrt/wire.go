// Package ipcrt is the multi-process engine: a third rt.Ctx implementation
// in which every rank is an OS process. It is the deployment shape the
// paper's ARMCI implementation actually runs in — one process per CPU,
// shared-memory segments inside a node, a real transport between nodes:
//
//   - Ranks on the same emulated node map each other's Globals as
//     mmap(MAP_SHARED) segments, so CanDirect/Direct are true load/store
//     and the shared-memory-first task order pays only cache traffic.
//   - Ranks on different nodes speak a one-sided RMA protocol (the strided
//     get, plus the mailbox behind internal/mp) over unix-domain or TCP
//     sockets, paying genuine serialization + copy costs.
//   - A coordinator process (the CLI, a test) launches the workers, runs
//     the collectives (Barrier, Malloc/Free segment registration),
//     dispatches jobs, and converts worker death into a typed error
//     instead of a hang.
//
// This file is the wire codec: one fixed-size little-endian frame header,
// in the framing discipline of the serving layer's binary wire (PR 7) —
// reject-before-allocate validation, explicit LE byte order, zero-copy
// float64<->byte reinterpretation where the host allows it.
package ipcrt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"srumma/internal/rt"
)

// Frame header layout, little-endian, 64 bytes:
//
//	[0:4)   magic "SRI1"
//	[4]     version (wireVersion)
//	[5]     op
//	[6:8)   reserved, must be zero
//	[8:16)  seq    uint64  request/response correlation id
//	[16:56) p0..p4 int64   op-specific parameters
//	[56:64) bodyLen uint64 bytes of body following the header
//
// The parameter slots by op (unused slots must be zero):
//
//	opHello      p0=rank
//	opBarrier    (none)                          ack: opBarrierAck
//	opMalloc     p0=elems                        ack: opMallocAck p0=segID, body=int64 sizes
//	opFree       p0=segID                        ack: opFreeAck
//	opFin        body=JSON RankResult
//	opJob        body=JSON JobSpec
//	opGetSub     p0=segID p1=off p2=ld p3=rows p4=cols   ack: body=floats (packed)
//	opMsg        p0=srcRank p1=tag, body=floats  (one-way, no ack)
//	opAck        response frame; seq echoes the request
//	opErr        response frame; body=error text
//	opAddrs      body=JSON []string per-rank RMA addresses (coordinator -> worker)
//	opPing       p0=ping seq (coordinator -> worker)     reply: opPong
//	opPong       p0=echoed ping seq (worker -> coordinator)
//
// Version 2 retired the contiguous get and put (op values 11 and 13): a
// contiguous transfer is the one-row region of a strided one. Version 3
// retired the source checksum (op value 18), which only a transfer-retry
// layer over injected faults ever asked for. Version 4 retired the strided
// put, the accumulate and the fetch-add (op values 14, 15 and 16), which no
// algorithm calls: one-sided data moves by the strided get alone. The values
// stay unassigned and a frame carrying one is refused as an unknown op, as
// is any peer still speaking an earlier version.
const (
	wireMagic   = uint32(0x31495253) // "SRI1" read little-endian
	wireVersion = 4
	headerLen   = 64
)

// Hard frame limits, enforced before any allocation. A segment id is a
// small coordinator-issued counter and an RMA body is at most one operand
// block, so anything near these bounds is a corrupt or hostile frame.
const (
	maxBodyLen = int64(1) << 31 // 2 GiB
	maxSegID   = int64(1) << 20
	maxElems   = maxBodyLen / 8
	maxRanks   = int64(1) << 16 // rows of the malloc-size and address tables
	maxAddrLen = int64(512)     // bytes of one rank's address-table entry
	maxErrLen  = int64(1) << 16
	bodyChunk  = 64 << 10 // a body's first allocation; see readBody
)

type op uint8

const (
	opInvalid op = iota
	// Control plane, worker -> coordinator.
	opHello
	opBarrier
	opMalloc
	opFree
	opFin
	// Control plane, coordinator -> worker.
	opJob
	opBarrierAck
	opMallocAck
	opFreeAck
	opShutdown
	// One-sided RMA, requester -> owning worker.
	_ // 11, retired by wire version 2
	opGetSub
	_ // 13, retired by wire version 2
	_ // 14, retired by wire version 4
	_ // 15, retired by wire version 4
	_ // 16, retired by wire version 4
	opMsg
	_ // 18, retired by wire version 3
	// RMA responses, owning worker -> requester.
	opAck
	opErr
	// Cluster control additions (appended so earlier op values stay stable):
	// the per-rank address table broadcast after launch, and the liveness
	// ping/pong the node supervisor's heartbeat rides on.
	opAddrs
	opPing
	opPong
	opCount // sentinel, not a valid op
)

// opNames names the assigned op values; "" marks one that is not (zero, and
// the six retired ones), which parseHeader refuses.
var opNames = [opCount]string{
	"", "hello", "barrier", "malloc", "free", "fin",
	"job", "barrier-ack", "malloc-ack", "free-ack", "shutdown",
	"", "get-sub", "", "", "", "", "msg", "",
	"ack", "err", "addrs", "ping", "pong",
}

func (o op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// frame is one decoded message. Body aliases the read buffer only inside
// the handler that decoded it; anything retained is copied.
type frame struct {
	Op   op
	Seq  uint64
	P    [5]int64
	Body []byte
}

// putHeader encodes the 64-byte header into dst.
func putHeader(dst []byte, f *frame) {
	_ = dst[headerLen-1]
	binary.LittleEndian.PutUint32(dst[0:4], wireMagic)
	dst[4] = wireVersion
	dst[5] = byte(f.Op)
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint64(dst[8:16], f.Seq)
	for i, p := range f.P {
		binary.LittleEndian.PutUint64(dst[16+8*i:], uint64(p))
	}
	binary.LittleEndian.PutUint64(dst[56:64], uint64(len(f.Body)))
}

// parseHeader validates and decodes a header, rejecting malformed frames
// before any body allocation happens. It returns the declared body length
// separately so the transport can bound the read.
func parseHeader(h []byte) (frame, int64, error) {
	var f frame
	if len(h) < headerLen {
		return f, 0, fmt.Errorf("ipcrt: truncated header: %d of %d bytes", len(h), headerLen)
	}
	if m := binary.LittleEndian.Uint32(h[0:4]); m != wireMagic {
		return f, 0, fmt.Errorf("ipcrt: bad magic %#08x", m)
	}
	if h[4] != wireVersion {
		return f, 0, fmt.Errorf("ipcrt: unsupported wire version %d", h[4])
	}
	f.Op = op(h[5])
	if f.Op >= opCount || opNames[f.Op] == "" {
		return f, 0, fmt.Errorf("ipcrt: unknown op %d", h[5])
	}
	if h[6] != 0 || h[7] != 0 {
		return f, 0, fmt.Errorf("ipcrt: nonzero reserved bytes")
	}
	f.Seq = binary.LittleEndian.Uint64(h[8:16])
	for i := range f.P {
		f.P[i] = int64(binary.LittleEndian.Uint64(h[16+8*i:]))
	}
	bodyLen := int64(binary.LittleEndian.Uint64(h[56:64]))
	if bodyLen < 0 || bodyLen > maxBodyLen {
		return f, 0, fmt.Errorf("ipcrt: body length %d exceeds limit %d", uint64(bodyLen), maxBodyLen)
	}
	if err := validateFrame(&f, bodyLen); err != nil {
		return f, 0, err
	}
	return f, bodyLen, nil
}

// validateFrame applies per-op parameter checks — segment ids bounded,
// geometry non-negative, float bodies a whole number of elements, every body
// within what its op carries — so a handler never sees a frame it must
// range-check again.
func validateFrame(f *frame, bodyLen int64) error {
	switch f.Op {
	case opGetSub:
		if f.P[0] < 0 || f.P[0] > maxSegID {
			return fmt.Errorf("ipcrt: %v: segment id %d out of range", f.Op, f.P[0])
		}
		// Offsets are bounded like element counts so owner-side arithmetic
		// (off + n) cannot overflow int.
		if f.P[1] < 0 || f.P[1] > maxElems {
			return fmt.Errorf("ipcrt: %v: offset %d out of range", f.Op, f.P[1])
		}
		// The region must fit the largest segment the wire allows; which
		// segment it really names is the owner's check, by the same rule.
		ld, rows, cols := f.P[2], f.P[3], f.P[4]
		if ld > maxElems || rows > maxElems || cols > maxElems {
			return fmt.Errorf("ipcrt: %v: region %dx%d ld=%d too large", f.Op, rows, cols, ld)
		}
		if err := rt.CheckRegion(int(maxElems), int(f.P[1]), int(ld), int(rows), int(cols)); err != nil {
			return fmt.Errorf("ipcrt: %v: %w", f.Op, err)
		}
	case opMalloc:
		if f.P[0] < 0 || f.P[0] > maxElems {
			return fmt.Errorf("ipcrt: malloc: element count %d out of range", f.P[0])
		}
	case opFree:
		if f.P[0] < 0 || f.P[0] > maxSegID {
			return fmt.Errorf("ipcrt: free: segment id %d out of range", f.P[0])
		}
	case opHello:
		if f.P[0] < 0 {
			return fmt.Errorf("ipcrt: hello: negative rank %d", f.P[0])
		}
		if f.P[1] < 0 || f.P[1] > 65535 {
			return fmt.Errorf("ipcrt: hello: RMA port %d out of range", f.P[1])
		}
	case opMsg:
		if f.P[0] < 0 {
			return fmt.Errorf("ipcrt: msg: negative source rank %d", f.P[0])
		}
	}
	if f.Op == opMsg && bodyLen%8 != 0 {
		return fmt.Errorf("ipcrt: %v: body %d bytes is not whole float64s", f.Op, bodyLen)
	}
	if bodyLen > bodyLimit[f.Op] {
		return fmt.Errorf("ipcrt: %v: body %d bytes exceeds the op's limit %d", f.Op, bodyLen, bodyLimit[f.Op])
	}
	return nil
}

// bodyLimit bounds each op's body by what the op can carry: a table its
// ranks, an error its text, a request or control frame nothing.
var bodyLimit = [opCount]int64{opMsg: maxBodyLen, opAck: maxBodyLen, opJob: maxBodyLen, opFin: maxBodyLen,
	opMallocAck: 8 * maxRanks, opAddrs: maxAddrLen * maxRanks, opErr: maxErrLen}

// writeFrame writes one frame. Callers serialize per connection.
func writeFrame(w io.Writer, f *frame) error {
	var h [headerLen]byte
	putHeader(h[:], f)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(f.Body) > 0 {
		if _, err := w.Write(f.Body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads and validates one frame, allocating the body only after
// the header passed validation and only as its bytes arrive.
func readFrame(r io.Reader) (frame, error) { return readSplitFrame(r, r) }

// readSplitFrame is readFrame with the header read from hdr and the body
// from body, so that a server can bound the one and not the other.
func readSplitFrame(hdr, body io.Reader) (frame, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(hdr, h[:]); err != nil {
		return frame{}, err
	}
	f, bodyLen, err := parseHeader(h[:])
	if err != nil {
		return frame{}, err
	}
	if bodyLen > 0 {
		if f.Body, err = readBody(body, int(bodyLen)); err != nil {
			return frame{}, fmt.Errorf("ipcrt: short body for %v: %w", f.Op, err)
		}
	}
	return f, nil
}

// readBody reads an n-byte body, doubling its buffer from bodyChunk as the
// bytes arrive rather than allocating what the header declared up front.
func readBody(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, bodyChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, b[got:])
		if got += k; err != nil || got == n {
			return b, err
		}
		b = append(b, make([]byte, min(got, n-got))...)
	}
}

// hostLittleEndian reports whether float64 slices can be reinterpreted as
// LE bytes for free (amd64/arm64 linux containers: yes).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes reinterprets a float64 slice as its LE byte representation,
// zero-copy on little-endian hosts. The caller must not let the result
// outlive vals.
func floatBytes(vals []float64) []byte {
	if len(vals) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*8)
	}
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// copyFloats decodes an LE float64 body into dst (len(b) == 8*len(dst),
// guaranteed by validateFrame plus the caller's length check).
func copyFloats(dst []float64, b []byte) {
	if hostLittleEndian && len(b) > 0 {
		copy(dst, unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8))
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

// putInt64s encodes a []int64 as an LE byte body (segment size tables).
func putInt64s(vals []int64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// getInt64s decodes an LE int64 body.
func getInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("ipcrt: int64 body %d bytes is not whole words", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}
