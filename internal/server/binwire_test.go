package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"srumma/internal/mat"
)

func uintptrOf(f []float64) uintptr {
	return uintptr(unsafe.Pointer(&f[0]))
}

// binPost runs one binary-wire request through the handler. accept
// overrides the Accept header ("" keeps none, so the response mirrors the
// request wire); header adds further request headers.
func binPost(t *testing.T, s *Server, req MultiplyRequest, accept string, header ...string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
	r.Header.Set("Content-Type", ContentTypeBinary)
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	if req.ID != "" {
		r.Header.Set("X-Srumma-Id", req.ID)
	}
	for i := 0; i+1 < len(header); i += 2 {
		r.Header.Set(header[i], header[i+1])
	}
	s.Handler().ServeHTTP(w, r)
	return w
}

// decodeBinRecorder parses a binary response out of a recorder.
func decodeBinRecorder(t *testing.T, w *httptest.ResponseRecorder) (int, int, []float64) {
	t.Helper()
	if got := w.Header().Get("Content-Type"); got != ContentTypeBinaryResult {
		t.Fatalf("response Content-Type %q, want %q", got, ContentTypeBinaryResult)
	}
	rows, cols, c, err := DecodeBinaryResponse(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rows, cols, c
}

func TestBinaryWireMatchesSerial(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	alpha, beta := 1.25, -0.5
	for _, cse := range []string{"NN", "TN", "NT", "TT"} {
		req := randReq(24, 32, 16, 300)
		req.Case = cse
		if cse == "TN" || cse == "TT" {
			req.ARows, req.ACols = req.ACols, req.ARows
		}
		if cse == "NT" || cse == "TT" {
			req.BRows, req.BCols = req.BCols, req.BRows
		}
		req.Alpha, req.Beta = &alpha, &beta
		cIn := make([]float64, 24*16)
		for i := range cIn {
			cIn[i] = float64(i%7) - 3
		}
		req.C = cIn
		req.ID = "bin-" + cse

		w := binPost(t, s, req, "")
		if w.Code != http.StatusOK {
			t.Fatalf("case %s: status %d: %s", cse, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Srumma-Id"); got != req.ID {
			t.Fatalf("case %s: X-Srumma-Id %q, want %q", cse, got, req.ID)
		}
		if got := w.Header().Get("X-Srumma-Route"); got != routeSmall {
			t.Fatalf("case %s: route %q, want %q", cse, got, routeSmall)
		}
		rows, cols, c := decodeBinRecorder(t, w)
		want := wantGemm(t, req)
		checkResult(t, MultiplyResponse{Rows: rows, Cols: cols, C: c}, want, 1e-10)
	}
}

func TestWireNegotiation(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(8, 8, 8, 500)

	// JSON request asking for a binary result via Accept.
	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
	r.Header.Set("Accept", ContentTypeBinaryResult)
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rows, cols, c := decodeBinRecorder(t, w)
	checkResult(t, MultiplyResponse{Rows: rows, Cols: cols, C: c}, wantGemm(t, req), 1e-10)

	// Binary request asking for JSON back.
	w2 := binPost(t, s, req, ContentTypeJSON)
	if w2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w2.Code, w2.Body.String())
	}
	var resp MultiplyResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp); err != nil {
		t.Fatalf("binary request with Accept json got non-JSON body: %v", err)
	}
	checkResult(t, resp, wantGemm(t, req), 1e-10)
}

// validBinBody builds a well-formed binary request body for mutation.
func validBinBody(t *testing.T) []byte {
	t.Helper()
	req := randReq(4, 3, 5, 700)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestBinaryWireMalformed(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 64})
	valid := validBinBody(t)

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"truncated header", valid[:20], http.StatusBadRequest},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), http.StatusBadRequest},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 9; return b }), http.StatusBadRequest},
		{"bad case", mutate(func(b []byte) []byte { b[5] = 7; return b }), http.StatusBadRequest},
		{"unknown flags", mutate(func(b []byte) []byte { b[6] = 0x80; return b }), http.StatusBadRequest},
		{"nonzero reserved", mutate(func(b []byte) []byte { b[7] = 1; return b }), http.StatusBadRequest},
		{"zero dimension", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0)
			return b
		}), http.StatusBadRequest},
		// Shape beyond MaxDim with a huge implied body: must be refused from
		// the 48-byte header alone, before any buffer is sized from it.
		{"oversized dimension", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<20)
			return b[:binReqHeaderLen]
		}), http.StatusBadRequest},
		{"nan alpha", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], math.Float64bits(math.NaN()))
			return b
		}), http.StatusBadRequest},
		{"inf beta", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], math.Float64bits(math.Inf(1)))
			return b
		}), http.StatusBadRequest},
		{"kernel threads out of range", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 1<<20)
			return b
		}), http.StatusBadRequest},
		{"nan operand", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[binReqHeaderLen:], math.Float64bits(math.NaN()))
			return b
		}), http.StatusBadRequest},
		{"inf operand", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[binReqHeaderLen+8:], math.Float64bits(math.Inf(-1)))
			return b
		}), http.StatusBadRequest},
		{"truncated operands", valid[:len(valid)-8], http.StatusBadRequest},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAB), http.StatusBadRequest},
		// Shape/length mismatch: header says 8x8 operands but the body holds
		// the original 4x3/3x5 floats.
		{"shape vs length mismatch", mutate(func(b []byte) []byte {
			for i := 0; i < 4; i++ {
				binary.LittleEndian.PutUint32(b[8+4*i:], 8)
			}
			return b
		}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(tc.body))
			r.Header.Set("Content-Type", ContentTypeBinary)
			s.Handler().ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (body: %s)", w.Code, tc.want, w.Body.String())
			}
			var eresp ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || eresp.Error == "" {
				t.Fatalf("malformed request did not produce a JSON error body: %s", w.Body.String())
			}
		})
	}
}

// TestBinaryWireNonFinite: the admit step refuses a non-finite value in
// any operand — first element, last element, either NaN flavour, either
// infinity — with the message naming the operand, and lets the largest
// finite value through.
func TestBinaryWireNonFinite(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 64})
	// header | A 4x3 | B 3x5 | C 4x5
	req := randReq(4, 3, 5, 701)
	beta := 1.0
	req.Beta, req.C = &beta, make([]float64, 4*5)
	valid, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	const qNaN, sNaN, posInf, negInf, maxFinite = 0x7ff8000000000000, 0xfff0000000000001, 0x7ff0000000000000, 0xfff0000000000000, 0x7fefffffffffffff
	for _, tc := range []struct {
		name string
		elem int // counted across A, B, C
		bits uint64
		msg  string // "" = the request must succeed
	}{
		{"nan starting a", 0, qNaN, "operand a contains a non-finite value"},
		{"-inf ending a", 11, negInf, "operand a contains a non-finite value"},
		{"signalling nan starting b", 12, sNaN, "operand b contains a non-finite value"},
		{"+inf ending b", 26, posInf, "operand b contains a non-finite value"},
		{"nan starting c", 27, qNaN, "operand c contains a non-finite value"},
		{"+inf ending c", 46, posInf, "operand c contains a non-finite value"},
		{"max finite ending c", 46, maxFinite, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(body[binReqHeaderLen+8*tc.elem:], tc.bits)
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
			r.Header.Set("Content-Type", ContentTypeBinary)
			s.Handler().ServeHTTP(w, r)
			if tc.msg == "" {
				if w.Code != http.StatusOK {
					t.Fatalf("status %d, want 200 (body: %s)", w.Code, w.Body.String())
				}
				return
			}
			var eresp ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil {
				t.Fatal(err)
			}
			if w.Code != http.StatusBadRequest || eresp.Error != tc.msg {
				t.Fatalf("status %d %q, want 400 %q", w.Code, eresp.Error, tc.msg)
			}
		})
	}
}

func TestJSONWireMalformed(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 8})
	big := make([]float64, 40000) // ~360 KB of JSON, beyond jsonBodyLimit(8)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "hello", http.StatusBadRequest},
		{"truncated json", `{"a_rows": 2, "a_cols":`, http.StatusBadRequest},
		{"nan alpha", `{"a_rows":1,"a_cols":1,"a":[1],"b_rows":1,"b_cols":1,"b":[1],"alpha":"NaN"}`, http.StatusBadRequest},
		{"length mismatch", `{"a_rows":2,"a_cols":2,"a":[1,2,3],"b_rows":2,"b_cols":2,"b":[1,2,3,4]}`, http.StatusBadRequest},
		// JSON has no spelling for a non-finite number: every attempt dies in
		// the decoder, before the admit step's scan could see it.
		{"overflowing a", `{"a_rows":1,"a_cols":1,"a":[1e999],"b_rows":1,"b_cols":1,"b":[1]}`, http.StatusBadRequest},
		{"overflowing b", `{"a_rows":1,"a_cols":1,"a":[1],"b_rows":1,"b_cols":1,"b":[-1e999]}`, http.StatusBadRequest},
		{"bare NaN in c", `{"a_rows":1,"a_cols":1,"a":[1],"b_rows":1,"b_cols":1,"b":[1],"beta":1,"c":[NaN]}`, http.StatusBadRequest},
		{"overflowing alpha", `{"a_rows":1,"a_cols":1,"a":[1],"b_rows":1,"b_cols":1,"b":[1],"alpha":1e999}`, http.StatusBadRequest},
		{"Infinity beta", `{"a_rows":1,"a_cols":1,"a":[1],"b_rows":1,"b_cols":1,"b":[1],"beta":Infinity,"c":[1]}`, http.StatusBadRequest},
		{"oversized body", func() string {
			b, _ := json.Marshal(MultiplyRequest{ARows: 200, ACols: 200, A: big, BRows: 200, BCols: 200, B: big})
			return string(b)
		}(), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader([]byte(tc.body)))
			r.Header.Set("Content-Type", "application/json")
			s.Handler().ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (body: %s)", w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// TestBinaryDecodeAllocs pins the zero-copy promise: steady-state binary
// decodes draw their operand buffers from the pool and perform no
// per-element conversion, so a decode is allocation-free.
func TestBinaryDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	req := randReq(32, 32, 32, 800)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	var wr wireRequest
	decode := func() {
		rd.Reset(body)
		wr = wireRequest{}
		if werr := decodeBinaryRequest(rd, int64(len(body)), 4096, nil, &wr); werr != nil {
			t.Fatal(werr)
		}
		wr.release()
	}
	// Warm the pool's size classes.
	for i := 0; i < 3; i++ {
		decode()
	}
	avg := testing.AllocsPerRun(100, decode)
	if avg > 0 {
		t.Fatalf("steady-state binary decode allocates %.1f objects/op, want 0", avg)
	}
}

// TestDecodeHoldsWhatItCarries: the pooled storage one 768x768 binary
// request holds — its two operands and the result the response encodes out
// of — is within an eighth of what they carry. Rounding each up to a power
// of two held 1.78 times as much.
func TestDecodeHoldsWhatItCarries(t *testing.T) {
	const n = 768
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(n, n, n, 830)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	held := mat.BufHeld()
	var wr wireRequest
	if werr := decodeBinaryRequest(bytes.NewReader(body), int64(len(body)), 4096, nil, &wr); werr != nil {
		t.Fatal(werr)
	}
	_, wr.result = s.resultMatrix(n, n)
	got, carried := mat.BufHeld()-held, int64(3*n*n*8)
	wr.release()
	if got > carried*9/8 {
		t.Fatalf("a %dx%d request holds %d B of pooled storage for %d B of operands and result (%.2fx)", n, n, got, carried, float64(got)/float64(carried))
	}
}

// TestAlignedPoolAlignment: every decoded operand starts on a cache line,
// whatever its size, so the kernel streams it line-aligned.
func TestAlignedPoolAlignment(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {8, 8}, {25, 40}, {256, 256}} {
		req := randReq(shape[0], shape[1], 1, 810)
		body, err := EncodeBinaryRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		var wr wireRequest
		if werr := decodeBinaryRequest(bytes.NewReader(body), int64(len(body)), 4096, nil, &wr); werr != nil {
			t.Fatal(werr)
		}
		for i, op := range [][]float64{wr.req.A, wr.req.B} {
			if addr := uintptrOf(op); addr%64 != 0 {
				t.Fatalf("%v: operand %c at %#x is not 64-byte aligned", shape, 'a'+i, addr)
			}
		}
		wr.release()
	}
}

// FuzzBinWire drives the binary request decoder with arbitrary bytes (must
// never panic, never allocate from unvalidated lengths) and checks the
// round-trip property: anything that decodes re-encodes to a body that
// decodes to the same request.
func FuzzBinWire(f *testing.F) {
	req := randReqFuzz(3, 4, 2)
	seed, _ := EncodeBinaryRequest(&req)
	f.Add(seed)
	alpha, beta := 2.5, 1.0
	req2 := randReqFuzz(2, 2, 2)
	req2.Alpha, req2.Beta = &alpha, &beta
	req2.C = []float64{1, 2, 3, 4}
	req2.Case = "TT"
	seed2, _ := EncodeBinaryRequest(&req2)
	f.Add(seed2)
	f.Add([]byte(binReqMagic))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var wr wireRequest
		defer wr.release()
		werr := decodeBinaryRequest(bytes.NewReader(data), int64(len(data)), 128, nil, &wr)
		if werr != nil {
			return
		}
		// Decoded OK: the admit step ran, so no operand holds a non-finite
		// value by the per-element reference either.
		for i, op := range [][]float64{wr.req.A, wr.req.B, wr.req.C} {
			if !refFinite(op) {
				t.Fatalf("decoder admitted a non-finite value in operand %c", 'a'+i)
			}
		}
		// The re-encoded body must decode to the same request.
		out, err := EncodeBinaryRequest(&wr.req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		var wr2 wireRequest
		defer wr2.release()
		if werr := decodeBinaryRequest(bytes.NewReader(out), int64(len(out)), 128, nil, &wr2); werr != nil {
			t.Fatalf("re-encoded body does not decode: %v", werr)
		}
		if wr2.req.ARows != wr.req.ARows || wr2.req.ACols != wr.req.ACols ||
			wr2.req.BRows != wr.req.BRows || wr2.req.BCols != wr.req.BCols ||
			wr2.req.Case != wr.req.Case ||
			wr2.req.alpha() != wr.req.alpha() || wr2.req.beta() != wr.req.beta() ||
			wr2.req.KernelThreads != wr.req.KernelThreads ||
			wr2.req.TimeoutMillis != wr.req.TimeoutMillis {
			t.Fatalf("round trip changed the header: %+v vs %+v", wr.req, wr2.req)
		}
		for _, pair := range [][2][]float64{{wr.req.A, wr2.req.A}, {wr.req.B, wr2.req.B}, {wr.req.C, wr2.req.C}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("round trip changed an operand length: %d vs %d", len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("round trip changed operand bits at %d", i)
				}
			}
		}
	})
}

func randReqFuzz(m, k, n int) MultiplyRequest {
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = float64(i) * 0.5
	}
	for i := range b {
		b[i] = float64(i) * -0.25
	}
	return MultiplyRequest{ARows: m, ACols: k, A: a, BRows: k, BCols: n, B: b}
}

// refFinite is the per-element policy allFinite must reproduce.
func refFinite(v []float64) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// TestAllFiniteMatchesReference pins the block scan against the per-element
// reference at every length across the 4-word block boundary and the scalar
// tail, with every kind of poison at every position.
func TestAllFiniteMatchesReference(t *testing.T) {
	poisons := []uint64{
		0x7ff8000000000000, // quiet NaN
		0x7ff8deadbeef0001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN, smallest payload
		0xfff7ffffffffffff, // negative signalling NaN, largest payload
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
	}
	benign := []uint64{
		0x7fefffffffffffff, // largest finite
		0xffefffffffffffff, // most negative finite
		0x0000000000000001, // smallest subnormal
		0x800fffffffffffff, // largest-magnitude negative subnormal
		0x8000000000000000, // -0.0
		0x0000000000000000,
		0x3ff0000000000000, // 1
		0x7fe0000000000000, // top exponent that is still finite
		0x000fffffffffffff,
	}
	for n := 0; n <= 67; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(benign[(i+n)%len(benign)])
		}
		if !refFinite(v) || !allFinite(v) {
			t.Fatalf("n=%d: a finite operand was refused", n)
		}
		for pos := 0; pos < n; pos++ {
			keep := v[pos]
			for _, p := range poisons {
				v[pos] = math.Float64frombits(p)
				if refFinite(v) || allFinite(v) {
					t.Fatalf("n=%d: %#x at position %d passed the scan", n, p, pos)
				}
			}
			v[pos] = keep
		}
	}

	// Random bit patterns, an eighth of them forced non-finite, over random
	// lengths and offsets (the pooled buffers are 64-byte aligned; a JSON
	// operand need not be).
	rng := rand.New(rand.NewSource(17))
	buf := make([]float64, 300)
	for trial := 0; trial < 4000; trial++ {
		off := rng.Intn(8)
		v := buf[off : off+rng.Intn(len(buf)-off)]
		dirty := rng.Intn(3) == 0
		for i := range v {
			w := rng.Uint64()
			if w&0x7ff0000000000000 == 0x7ff0000000000000 {
				w &^= 1 << 62 // keep the draw finite
			}
			if dirty && rng.Intn(8) == 0 {
				w |= 0x7ff0000000000000
			}
			v[i] = math.Float64frombits(w)
		}
		if got, want := allFinite(v), refFinite(v); got != want {
			t.Fatalf("trial %d (len %d, offset %d): allFinite %v, reference %v", trial, len(v), off, got, want)
		}
	}
}

// FuzzFiniteScan: on arbitrary bit patterns, at any offset into a buffer,
// the block scan and the per-element reference give the same verdict.
func FuzzFiniteScan(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 40), uint8(1))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, 9), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}, 13), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		v := make([]float64, len(data)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if int(skip) < len(v) {
			v = v[skip:]
		}
		if got, want := allFinite(v), refFinite(v); got != want {
			t.Fatalf("allFinite %v, reference %v on %x", got, want, data)
		}
	})
}

// gzipBytes compresses b, optionally with a gzip header extra field.
func gzipBytes(t *testing.T, b, extra []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Extra = extra
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipBombs: the server inflates nothing. A body sent with
// Content-Encoding: gzip reaches the decoders as the bytes it is, so on
// either wire it is refused with a 400 — a compressed valid request and a
// bomb alike — and whatever the decoder drew from the buffer pool is back
// once the handler returns.
func TestGzipBombs(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 8})
	limit := jsonBodyLimit(8)
	req := MultiplyRequest{ARows: 2, ACols: 2, A: make([]float64, 4), BRows: 2, BCols: 2, B: make([]float64, 4)}
	validJSON, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	validBin, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	jsonBomb := []byte(`{"a_rows":1,"a_cols":1,"b_rows":1,"b_cols":1,"b":[1],"a":[` + strings.Repeat("0,", int(limit)) + `0]}`)
	binBomb := append(validBin, make([]byte, 4<<20)...)

	for _, tc := range []struct {
		name, contentType string
		bodies            [][]byte
	}{
		{"json", ContentTypeJSON, [][]byte{validJSON, jsonBomb}},
		{"binary", ContentTypeBinary, [][]byte{validBin, binBomb}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, raw := range tc.bodies {
				held := mat.BufHeld()
				w := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(gzipBytes(t, raw, nil)))
				r.Header.Set("Content-Type", tc.contentType)
				r.Header.Set("Content-Encoding", "gzip")
				s.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusBadRequest {
					t.Fatalf("body %d: status %d, want 400 (body: %s)", i, w.Code, w.Body.String())
				}
				if out := mat.BufHeld() - held; out != 0 {
					t.Fatalf("body %d: %d pooled bytes still held after the refusal", i, out)
				}
			}
		})
	}
}

// TestBodyLimitCauseIs413 pins how a body-limit overrun is recognised: by
// the *http.MaxBytesError in the failure's chain, wherever on either wire
// it struck, not by the text of the message.
func TestBodyLimitCauseIs413(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 8})
	valid, err := EncodeBinaryRequest(&MultiplyRequest{ARows: 2, ACols: 2, A: make([]float64, 4), BRows: 2, BCols: 2, B: make([]float64, 4)})
	if err != nil {
		t.Fatal(err)
	}

	// Through the handler, JSON wire: white space past jsonBodyLimit strikes
	// the limit before the object ends.
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply",
		strings.NewReader(`{"a_rows":2`+strings.Repeat(" ", int(jsonBodyLimit(8)))+`}`))
	r.Header.Set("Content-Type", ContentTypeJSON)
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: status %d, want 413 (body: %s)", w.Code, w.Body.String())
	}

	// In the decoders: the limit striking mid-operand (binary) or mid-value
	// (JSON) stays reachable through errors.As, message untouched.
	limited := func(b []byte, n int64) io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(b)), n)
	}
	jsonBody, _ := json.Marshal(randReq(2, 2, 2, 1))
	for name, werr := range map[string]*wireError{
		"binary": decodeBinaryRequest(limited(valid, binReqHeaderLen+20), -1, 8, nil, &wireRequest{}),
		"json":   decodeJSONRequest(limited(jsonBody, 30), nil, &wireRequest{}),
	} {
		var mbe *http.MaxBytesError
		if werr == nil || !errors.As(werr, &mbe) {
			t.Fatalf("%s: a body-limit overrun lost its cause: %v", name, werr)
		}
		if werr.status != http.StatusBadRequest || !strings.Contains(werr.Error(), "request body too large") {
			t.Fatalf("%s: decoder returned status %d %q", name, werr.status, werr)
		}
	}
	// And an ordinary truncation is not a 413.
	var mbe *http.MaxBytesError
	if werr := decodeBinaryRequest(bytes.NewReader(valid[:60]), -1, 8, nil, &wireRequest{}); werr == nil || errors.As(werr, &mbe) {
		t.Fatalf("plain truncation: %v", werr)
	}
}

// TestEncodeBinaryRequestSizesOnce: the client encoder writes the body into
// one buffer of exactly its size — header plus A, B and C — so no operand
// is copied twice on the way out.
func TestEncodeBinaryRequestSizesOnce(t *testing.T) {
	req := randReq(48, 40, 56, 823)
	req.C = mat.Random(48, 56, 824).Data
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	if want := binReqHeaderLen + 8*(len(req.A)+len(req.B)+len(req.C)); len(body) != want || cap(body) != want {
		t.Fatalf("body len %d cap %d, want both %d", len(body), cap(body), want)
	}
	if raceEnabled {
		return // allocation counts are meaningless under the race detector
	}
	if avg := testing.AllocsPerRun(50, func() { EncodeBinaryRequest(&req) }); avg != 1 {
		t.Fatalf("EncodeBinaryRequest allocates %.1f objects, want 1", avg)
	}
}
