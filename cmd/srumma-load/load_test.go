package main

import (
	"context"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srumma/internal/mat"
	"srumma/internal/server"
)

func TestParseMix(t *testing.T) {
	for spec, want := range map[string][]shape{
		"32x32x32":         {{32, 32, 32}},
		" 2x3x4 , 96x1x7,": {{2, 3, 4}, {96, 1, 7}},
	} {
		if got, err := parseMix(spec); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseMix(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"", " , ", "32x32", "32x32x32x32", "32xax32", "32x0x32", "32x-4x32", "8x8x8,bad"} {
		if got, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) = %v, want an error", bad, got)
		}
	}
}

func TestParseClasses(t *testing.T) {
	inter, batch := classAssign{name: "interactive"}, classAssign{name: "batch"}
	hinted := classAssign{name: "interactive", deadlineMs: 500}
	for _, tc := range []struct {
		spec     string
		deadline time.Duration
		want     []classAssign
	}{
		{"", 0, nil},
		{"batch", 0, []classAssign{batch}},
		{"interactive:3,batch:1", 0, []classAssign{inter, inter, inter, batch}},
		// The deadline hint rides on interactive requests only.
		{"interactive:1, batch:2", 500 * time.Millisecond, []classAssign{hinted, batch, batch}},
	} {
		if got, err := parseClasses(tc.spec, tc.deadline); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseClasses(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	for _, bad := range []string{",", "bulk:1", ":2", "batch:0", "batch:-1", "batch:x", "batch:"} {
		if got, err := parseClasses(bad, 0); err == nil {
			t.Errorf("parseClasses(%q) = %v, want an error", bad, got)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted  []float64
		q, want float64
	}{
		{nil, 0.5, 0},
		{ten[6:7], 0, 7}, {ten[6:7], 0.5, 7}, {ten[6:7], 1, 7},
		{ten, 0, 1}, {ten, 0.1, 1}, {ten, 0.5, 5}, {ten, 0.51, 6}, {ten, 0.9, 9}, {ten, 0.99, 10}, {ten, 1, 10},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
}

// product is what the stubs below answer with. They compute nothing, so a
// test item carries no operands, only the result to hold the answer to.
var product = mat.Random(2, 2, 7)

// testItem is one request on the given wire; items built with the same
// cell claim identical operands.
func testItem(wire string, cell *digestCell) workItem {
	return workItem{want: product, wire: wire, dig: cell}
}

// answer serves c as the product, under the given result digest.
func answer(c *mat.Matrix, digest string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.MultiplyResponse{Rows: c.Rows, Cols: c.Cols, C: c.Data, Route: "small", Digest: digest})
	}
}

// refuse serves an error status the way srumma-serve words one.
func refuse(status int, msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: msg})
	}
}

func stub(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestIssueRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	addr := stub(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			refuse(http.StatusTooManyRequests, "queue full")(w, r)
			return
		}
		answer(product, "")(w, r)
	})
	start := time.Now()
	o := issue(newClient(1), addr, testItem("json", nil), true, 1e-12, 3)
	elapsed := time.Since(start)
	if o.err != nil || o.missed || o.retries != 1 || calls.Load() != 2 {
		t.Fatalf("outcome %+v over %d calls, want success after one retry", o, calls.Load())
	}
	if elapsed < maxRetryPause || elapsed > 10*time.Second {
		t.Errorf("paused %v for Retry-After: 30, want the %v cap", elapsed, maxRetryPause)
	}
	if o.route != "small" || o.latency <= 0 || o.bytesIn == 0 {
		t.Errorf("outcome %+v: route, latency and bytes not recorded", o)
	}
}

func TestIssueOutcomes(t *testing.T) {
	it := testItem("binary", nil)
	wrong := answer(mat.Random(2, 2, 99), "")
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		verify  bool
		ok      func(o outcome) bool
	}{
		{"a 504 is a deadline miss, not an error", refuse(http.StatusGatewayTimeout, "deadline exceeded"), true,
			func(o outcome) bool { return o.missed && o.err == nil }},
		{"a 500 is an error carrying the server's message", refuse(http.StatusInternalServerError, "rank 2 exited"), true,
			func(o outcome) bool {
				return !o.missed && o.err != nil && strings.Contains(o.err.Error(), "500: rank 2 exited")
			}},
		{"429 past -max-retries gives up", refuse(http.StatusTooManyRequests, "queue full"), true,
			func(o outcome) bool { return o.err != nil && o.retries == 2 }},
		{"a wrong product fails -verify", wrong, true,
			func(o outcome) bool { return o.err != nil }},
		{"-verify=false times a response without judging it", wrong, false,
			func(o outcome) bool { return o.err == nil && o.latency > 0 && o.bytesIn > 0 }},
	} {
		if o := issue(newClient(1), stub(t, tc.handler), it, tc.verify, 1e-12, 1); !tc.ok(o) {
			t.Errorf("%s: outcome %+v", tc.name, o)
		}
	}
}

// A server whose JSON and binary wires disagree on the digest of one
// result is serving the cache under the wrong address: the second response
// must fail, in whichever order the wires come.
func TestIssueDigestMismatchAcrossWires(t *testing.T) {
	addr := stub(t, func(w http.ResponseWriter, r *http.Request) {
		answer(product, "digest-of-"+r.Header.Get("Content-Type"))(w, r)
	})
	client := newClient(1)
	for _, order := range [][2]string{{"json", "binary"}, {"binary", "json"}} {
		cell := &digestCell{}
		for i := 0; i < 2; i++ {
			if o := issue(client, addr, testItem(order[0], cell), true, 1e-12, 3); o.err != nil {
				t.Fatalf("%s request %d: %v", order[0], i, o.err)
			}
		}
		o := issue(client, addr, testItem(order[1], cell), true, 1e-12, 3)
		if o.err == nil || !strings.Contains(o.err.Error(), "digest") {
			t.Errorf("%s after %s: outcome %+v, want a digest mismatch", order[1], order[0], o)
		}
	}
}

// TestDriveReusesConnections holds the client to what it is timing: with
// every body drained and one connection per worker, a run opens no more
// connections than it has workers. A 96^3 response is chunked, so a body
// closed where its decoder stopped would cost a connection per request.
func TestDriveReusesConnections(t *testing.T) {
	const requests, concurrency = 200, 4
	for _, wire := range []string{"json", "binary"} {
		srv, err := server.New(server.Config{NProcs: 4})
		if err != nil {
			t.Fatal(err)
		}
		var opened atomic.Int32
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened.Add(1)
			}
		}
		ts.Start()

		items := buildItems([]shape{{96, 96, 96}}, nil, 1, 1, wire, false)
		pick := func(int) workItem { return items[0][0] }
		results, _ := drive(newClient(concurrency), ts.URL, pick, requests, concurrency, true, 1e-9, 100)
		for i, o := range results {
			if o.err != nil || o.missed {
				t.Fatalf("%s request %d: %+v", wire, i, o)
			}
		}
		if n := opened.Load(); n > concurrency {
			t.Errorf("%s wire: %d requests at concurrency %d opened %d connections", wire, requests, concurrency, n)
		}

		ts.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

// A flag as README shows it: on a command line, or backticked in prose.
var shownFlag = regexp.MustCompile("[ `]-([a-z][a-z0-9-]*)")

// TestFlagsMatchREADME keeps the binary and its documentation from
// drifting: the binary registers exactly the flags of a load client, and
// every README paragraph that names srumma-load — prose or command line —
// names registered flags only.
func TestFlagsMatchREADME(t *testing.T) {
	want := strings.Fields("addr classes concurrency deadline gzip max-retries min-cache-hits mix out repeat-operands requests seed tol verify wait wire")
	var registered []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			registered = append(registered, f.Name)
		}
	})
	sort.Strings(registered)
	if !reflect.DeepEqual(registered, want) {
		t.Errorf("registered flags %v, want %v", registered, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, para := range strings.Split(string(readme), "\n\n") {
		if !strings.Contains(para, "srumma-load") {
			continue
		}
		for _, m := range shownFlag.FindAllStringSubmatch(para, -1) {
			if flag.Lookup(m[1]) == nil {
				t.Errorf("README names -%s next to srumma-load, which the binary does not register:\n%s", m[1], para)
			}
		}
	}
}
