package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
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
