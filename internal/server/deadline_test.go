package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"srumma/internal/mat"
)

// serveTCP serves s on a loopback listener and returns its address; the
// server's cleanup shuts the listener down.
func serveTCP(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	return l.Addr().String()
}

// dialTCP connects to addr with a read deadline the server must beat.
func dialTCP(t *testing.T, addr string, within time.Duration) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(within))
	return conn
}

// TestStalledBodyAnsweredAtDeadline: a client that sends a valid binary
// header for large operands, with the matching Content-Length, and then goes
// silent gets a 408 once MaxTimeout has passed, and the operand buffer the
// header drew is back in the pool by the time the answer arrives.
func TestStalledBodyAnsweredAtDeadline(t *testing.T) {
	const maxTimeout = 300 * time.Millisecond
	s := newTestServer(t, Config{NProcs: 4, MaxTimeout: maxTimeout})
	addr := serveTCP(t, s)
	req := randReq(256, 256, 256, 820)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	held := mat.BufHeld()
	conn := dialTCP(t, addr, 10*time.Second)
	fmt.Fprintf(conn, "POST /v1/multiply HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", ContentTypeBinary, len(body))
	conn.Write(body[:binReqHeaderLen])
	stalled := time.Now()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a stalled body: %v", err)
	}
	resp.Body.Close()
	waited := time.Since(stalled)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled body answered %d, want 408", resp.StatusCode)
	}
	if waited < maxTimeout/2 || waited > maxTimeout+2*time.Second {
		t.Fatalf("stalled body answered after %v, want about %v", waited, maxTimeout)
	}
	if out := mat.BufHeld() - held; out != 0 {
		t.Fatalf("%d B of pooled storage still out after the stalled request was answered", out)
	}
}

// TestHalfRequestLineClosed: a connection that never finishes its request
// line is closed once MaxTimeout has passed, not held open.
func TestHalfRequestLineClosed(t *testing.T) {
	const maxTimeout = 300 * time.Millisecond
	s := newTestServer(t, Config{NProcs: 4, MaxTimeout: maxTimeout})
	conn := dialTCP(t, serveTCP(t, s), 10*time.Second)
	io.WriteString(conn, "POST /v1/mul")
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half a request line held the connection open: %v", err)
	}
	if waited := time.Since(start); waited > maxTimeout+2*time.Second {
		t.Fatalf("half a request line was closed after %v, want about %v", waited, maxTimeout)
	}
}

// TestPoisonedWindowRefusedEarly: a client that sends a binary header and a
// first admission window of A holding a NaN, and then stalls, is answered
// 400 as soon as that window has landed — not once MaxTimeout has passed —
// with the finite scan alone (cache off) and with the fused pass (cache
// on), and the buffer the header drew is back in the pool by then.
func TestPoisonedWindowRefusedEarly(t *testing.T) {
	for _, entries := range []int{0, 8} {
		t.Run(fmt.Sprintf("cache-entries=%d", entries), func(t *testing.T) {
			s := newTestServer(t, Config{NProcs: 4, CacheEntries: entries})
			addr := serveTCP(t, s)
			req := randReq(384, 384, 384, 821)
			req.A[admitWindow/2] = math.NaN()
			body, err := EncodeBinaryRequest(&req)
			if err != nil {
				t.Fatal(err)
			}
			held := mat.BufHeld()
			conn := dialTCP(t, addr, 10*time.Second)
			fmt.Fprintf(conn, "POST /v1/multiply HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", ContentTypeBinary, len(body))
			conn.Write(body[:binReqHeaderLen+8*admitWindow])
			sent := time.Now()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no answer to a poisoned first window: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("poisoned first window answered %d, want 400", resp.StatusCode)
			}
			if waited := time.Since(sent); waited > time.Second {
				t.Fatalf("poisoned first window answered after %v, want within 1s", waited)
			}
			if out := mat.BufHeld() - held; out != 0 {
				t.Fatalf("%d B of pooled storage still out after the poisoned request was answered", out)
			}
		})
	}
}

// multiplyHandlers counts the goroutines inside the multiply handler.
func multiplyHandlers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte(".(*Server).handleMultiply("))
}

// TestContentLengthLies: on either wire, a Content-Length longer than what
// the client sends before it closes its side, or shorter than the body it
// sends, is answered 4xx, and leaves no pooled buffer held and no handler
// running.
func TestContentLengthLies(t *testing.T) {
	req := randReq(32, 32, 32, 822)
	bin, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, ctype string
		body        []byte
		claim, send int
	}{
		{"binary/longer", ContentTypeBinary, bin, len(bin) + 4096, len(bin)},
		{"binary/longer-truncated", ContentTypeBinary, bin, len(bin), len(bin) / 2},
		{"binary/shorter", ContentTypeBinary, bin, len(bin) - 8, len(bin)},
		{"json/longer", ContentTypeJSON, js, len(js) + 4096, len(js)},
		{"json/longer-truncated", ContentTypeJSON, js, len(js), len(js) / 2},
		{"json/shorter", ContentTypeJSON, js, len(js) - 10, len(js)},
	}
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 8})
	addr := serveTCP(t, s)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			held := mat.BufHeld()
			conn := dialTCP(t, addr, 10*time.Second)
			fmt.Fprintf(conn, "POST /v1/multiply HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", tc.ctype, tc.claim)
			conn.Write(tc.body[:tc.send])
			if tc.send < tc.claim {
				conn.(*net.TCPConn).CloseWrite()
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no answer: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode > 499 {
				t.Fatalf("answered %d, want 4xx", resp.StatusCode)
			}
			conn.Close()
			for deadline := time.Now().Add(2 * time.Second); multiplyHandlers() > 0; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d multiply handler(s) still running after the answer", multiplyHandlers())
				}
			}
			if out := mat.BufHeld() - held; out != 0 {
				t.Fatalf("%d B of pooled storage still out after the answer", out)
			}
		})
	}
}
