package ipcrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"srumma/internal/rt"
)

// rawTCPServer starts a coordinator-less ctx serving the RMA protocol on a
// TCP listener, with one 16-element segment registered as id 1.
func rawTCPServer(t *testing.T) string {
	t.Helper()
	c := newCtx(0, rt.Topology{NProcs: 1, ProcsPerNode: 1}, t.TempDir(), nil)
	c.segs[1] = &segment{id: 1, sizes: []int{16}, maps: map[int]*segMap{0: {data: make([]float64, 16)}}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("tcp listener: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go c.serveRMA(ln)
	return ln.Addr().String()
}

// expectServerAlive proves the RMA server survived a poisoned connection:
// a fresh dial must still answer a valid get.
func expectServerAlive(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("redial after malformed frame: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Op: opGetSub, Seq: 1, P: [5]int64{1, 0, 4, 1, 4}}); err != nil {
		t.Fatalf("valid get after malformed frame: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading get response: %v", err)
	}
	if resp.Op != opAck || resp.Seq != 1 || len(resp.Body) != 4*8 {
		t.Fatalf("get response %+v, want 4-element ack seq 1", resp)
	}
}

// TestTCPMalformed drives the unix-socket suite's malformed frames at a
// live TCP RMA server: every one must close the offending connection
// without tearing the server down — and without allocating the declared
// body (the oversized and hostile cases would OOM otherwise).
func TestTCPMalformed(t *testing.T) {
	addr := rawTCPServer(t)
	get := frame{Op: opGetSub, Seq: 1, P: [5]int64{1, 0, 8, 1, 8}}
	tests := []struct {
		name string
		raw  []byte
	}{
		{"version 1 header", corrupt(t, get, func(h []byte) { h[4] = 1 })},
		{"retired contiguous get", corrupt(t, get, func(h []byte) { h[5] = 11 })},
		{"retired contiguous put", corrupt(t, get, func(h []byte) { h[5] = 13 })},
		{"version 2 header", corrupt(t, get, func(h []byte) { h[4] = 2 })},
		{"retired source checksum", corrupt(t, get, func(h []byte) { h[5] = 18 })},
		{"bad magic", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint32(h[0:4], 0xdeadbeef)
		})},
		{"bad version", corrupt(t, get, func(h []byte) { h[4] = 99 })},
		{"zero op", corrupt(t, get, func(h []byte) { h[5] = 0 })},
		{"op out of range", corrupt(t, get, func(h []byte) { h[5] = byte(opCount) })},
		{"reserved bytes set", corrupt(t, get, func(h []byte) { h[6] = 1 })},
		{"oversized body", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], uint64(maxBodyLen)+1)
		})},
		{"negative body (wrapped)", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], math.MaxUint64)
		})},
		{"negative segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		})},
		{"huge segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], uint64(maxSegID)+1)
		})},
		{"huge get count", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[40:48], uint64(maxElems)+1) // rows
		})},
		{"get-sub ld < cols", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 4, 2, 8}},
			func(h []byte) {})},
		{"get-sub product overflow", corrupt(t, frame{Op: opGetSub,
			P: [5]int64{1, 0, maxElems, maxElems, maxElems}}, func(h []byte) {})},
		{"put body not float-aligned", corrupt(t, frame{Op: opPutSub, P: [5]int64{1, 0, 2, 1, 2}, Body: make([]byte, 12)},
			func(h []byte) {})},
		{"put body shorter than its region", corrupt(t, frame{Op: opPutSub, P: [5]int64{1, 0, 4, 1, 4}, Body: make([]byte, 16)},
			func(h []byte) {})},
		{"get-sub request with a body", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 4, 1, 4}, Body: make([]byte, 8)},
			func(h []byte) {})},
		{"hostile header: 256 MiB declared, EOF", hostileHeader()},
		{"control op on RMA conn", corrupt(t, frame{Op: opShutdown}, func(h []byte) {})},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if n := allocated(func() {
				if _, err := conn.Write(tc.raw); err != nil {
					t.Fatalf("write: %v", err)
				}
				conn.(*net.TCPConn).CloseWrite()
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				// The server either answers opErr (validated op against the
				// wrong target) or drops the connection (frame-level garbage);
				// in both cases the stream must end without the server dying.
				for {
					f, err := readFrame(conn)
					if err != nil {
						break
					}
					if f.Op != opErr {
						t.Fatalf("malformed frame %q got non-error response %+v", tc.name, f)
					}
				}
			}); n >= 1<<20 {
				t.Errorf("refusing the frame allocated %d bytes, want < 1 MiB", n)
			}
			expectServerAlive(t, addr)
		})
	}
}

// TestTCPTruncated cuts the stream mid-header and mid-body: the server
// must treat both as a dead peer, not block or crash.
func TestTCPTruncated(t *testing.T) {
	addr := rawTCPServer(t)
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Op: opPutSub, Seq: 3, P: [5]int64{1, 0, 8, 1, 8}, Body: floatBytes(make([]float64, 8))}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"mid-header", headerLen - 8},
		{"mid-body", headerLen + 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(raw[:tc.cut]); err != nil {
				t.Fatalf("write: %v", err)
			}
			conn.(*net.TCPConn).CloseWrite()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if f, err := readFrame(conn); err == nil {
				t.Fatalf("truncated stream got response %+v", f)
			}
			expectServerAlive(t, addr)
		})
	}
}

var (
	fuzzTCPOnce sync.Once
	fuzzTCPAddr string
)

// FuzzTCPWire throws arbitrary byte streams at a LIVE TCP RMA server (one
// shared across the fuzzing session): whatever arrives, the server must
// keep running — close the connection or answer opErr frames, never panic
// or wedge. Server-side panics crash the whole test process, so survival
// of the fuzz loop is the assertion.
func FuzzTCPWire(f *testing.F) {
	seed := []frame{
		{Op: opGetSub, Seq: 7, P: [5]int64{1, 0, 8, 1, 8}},
		{Op: opGetSub, Seq: 8, P: [5]int64{1, 0, 16, 4, 8}},
		{Op: opPutSub, Seq: 9, P: [5]int64{1, 8, 3, 1, 3}, Body: floatBytes([]float64{1, 2, 3})},
		{Op: opFetchAdd, Seq: 10, P: [5]int64{1, 3, float64bits(1)}},
		{Op: opMsg, P: [5]int64{0, 17}, Body: floatBytes([]float64{9})},
		// No columns, row starts past the 16-element segment: what the fuzzer
		// killed the version-1 server with.
		{Op: opGetSub, Seq: 11, P: [5]int64{1, 0, 16, 4, 0}},
	}
	for _, fr := range seed {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(make([]byte, headerLen-1))
	f.Add(bytes.Repeat([]byte{0xff}, headerLen+16))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzTCPOnce.Do(func() {
			c := newCtx(0, rt.Topology{NProcs: 1, ProcsPerNode: 1}, t.TempDir(), nil)
			c.segs[1] = &segment{id: 1, sizes: []int{16}, maps: map[int]*segMap{0: {data: make([]float64, 16)}}}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("tcp listener: %v", err)
			}
			go c.serveRMA(ln)
			fuzzTCPAddr = ln.Addr().String()
		})
		conn, err := net.Dial("tcp", fuzzTCPAddr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		conn.Write(raw)
		conn.(*net.TCPConn).CloseWrite()
		// Drain until the server ends the stream (EOF after its last
		// response, or an immediate close on garbage).
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		io.Copy(io.Discard, conn)
	})
}
