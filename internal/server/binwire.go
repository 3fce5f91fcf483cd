package server

// Dense binary wire format for /v1/multiply — the serving hot path without
// float→decimal text. A request is a fixed 48-byte little-endian header
// (shape, case, alpha/beta, per-request knobs) followed by the operands as
// raw little-endian float64 arrays: A, then B, then (when flagged) the
// input C. A response is a 16-byte header followed by the result floats.
// Request identity, workload class and the deadline hint — strings and
// scheduling metadata, not bulk data — ride as X-Srumma-* HTTP headers.
//
// The decoder is zero-copy on little-endian hosts: the body is read with
// io.ReadFull directly into the float64 backing store of a pooled,
// 64-byte-aligned buffer (reinterpreted as bytes via unsafe.Slice), and
// that buffer flows into the engine as the operand — no intermediate
// []byte staging and no per-element conversion. On a big-endian host the
// same path runs with an in-place byte swap after the read, so the wire
// image is identical everywhere.
//
// Resource protection happens BEFORE allocation: the header's shapes are
// validated against the server's MaxDim bound, and (for identity-encoded
// bodies) the Content-Length must equal the header-derived body size
// exactly, so a hostile or truncated request is refused without ever
// sizing a buffer from attacker-controlled lengths. Optional gzip is
// negotiated with the standard Content-Encoding/Accept-Encoding headers.

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"srumma/internal/core"
)

// Content types negotiated on POST /v1/multiply. JSON stays the default
// and the compatibility path; the binary types opt a client into the
// dense wire.
const (
	// ContentTypeBinary marks a binary-encoded request body.
	ContentTypeBinary = "application/x-srumma-gemm"
	// ContentTypeBinaryResult marks a binary-encoded response body; send
	// it in Accept to get a binary result regardless of the request wire.
	ContentTypeBinaryResult = "application/x-srumma-gemm-result"
	// ContentTypeJSON is the default wire.
	ContentTypeJSON = "application/json"
)

// Wire labels used by the metrics instruments.
const (
	wireJSON   = "json"
	wireBinary = "binary"
)

// Binary framing constants.
const (
	binReqMagic  = "SRW1" // request header magic
	binRespMagic = "SRWR" // response header magic
	binVersion   = 1

	binReqHeaderLen  = 48
	binRespHeaderLen = 16

	binFlagHasC = 1 << 0 // request body carries an input C after B

	// maxWireKernelThreads bounds the per-request kernel-thread knob; a
	// wire value beyond it is a malformed request, not a tuning choice.
	maxWireKernelThreads = 4096
)

var binCaseNames = [4]string{"NN", "TN", "NT", "TT"}

// hostLittleEndian reports whether float64 memory already matches the
// little-endian wire image (true on every supported platform; the
// big-endian fallback byte-swaps in place).
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes reinterprets f's backing array as its raw bytes. The view
// aliases f — valid only while f is alive and unmoved (slices are heap
// stable in Go), and only meaningful as wire data on little-endian hosts.
func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

// readFloats fills dst with little-endian float64s from r, reading the
// wire bytes directly into dst's backing store (zero-copy on LE hosts).
func readFloats(r io.Reader, dst []float64) error {
	b := floatBytes(dst)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if !hostLittleEndian {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return nil
}

// writeFloats writes src as little-endian float64 wire bytes.
func writeFloats(w io.Writer, src []float64) error {
	if hostLittleEndian {
		_, err := w.Write(floatBytes(src))
		return err
	}
	var chunk [8192]byte
	for len(src) > 0 {
		n := len(src)
		if n > len(chunk)/8 {
			n = len(chunk) / 8
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(src[i]))
		}
		if _, err := w.Write(chunk[:8*n]); err != nil {
			return err
		}
		src = src[n:]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pooled 64-byte-aligned operand buffers.

// bufAlign is the alignment of pooled operand buffers: one cache line, so
// the packed kernel's streaming loads start line-aligned no matter which
// request produced the operand.
const bufAlign = 64

// alignedBuf is one pooled operand buffer: raw is the allocation, data the
// 64-byte-aligned window the decoder fills and the engine reads.
type alignedBuf struct {
	raw  []float64
	data []float64
	cls  int
}

// bufPool pools aligned operand buffers by power-of-two size class (the
// armci scratch-pool shape), keeping steady-state binary decodes
// allocation-free.
type bufPool struct {
	classes [40]sync.Pool
}

// operandBufs is the pool every Server decodes into. It is process-wide
// because a sync.Pool's contents outlive their owner anyway (the runtime
// keeps them reachable for two GC cycles): a pool per Server only made a
// closed server's warm buffers useless to the next one while they still
// counted against the heap.
var operandBufs bufPool

// bufSizeClass returns the smallest c with 1<<c >= n (n >= 1).
func bufSizeClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// get returns an aligned buffer with len(data) == n.
func (p *bufPool) get(n int) *alignedBuf {
	// A class holds 1<<cls floats plus the slack an aligned window may need,
	// so a power-of-two operand (64², 128²) fits the class of its own size
	// instead of spilling into the next, twice as large.
	const pad = bufAlign / 8
	cls := bufSizeClass(n)
	b, _ := p.classes[cls].Get().(*alignedBuf)
	if b == nil {
		raw := make([]float64, 1<<cls+pad)
		b = &alignedBuf{raw: raw, cls: cls}
	}
	addr := uintptr(unsafe.Pointer(&b.raw[0]))
	off := int((bufAlign-addr%bufAlign)%bufAlign) / 8
	b.data = b.raw[off : off+n]
	return b
}

// put returns b to its size-class pool.
func (p *bufPool) put(b *alignedBuf) {
	if b == nil {
		return
	}
	b.data = nil
	p.classes[b.cls].Put(b)
}

// ---------------------------------------------------------------------------
// Request decode.

// wireError is a decode failure with its HTTP status: 400 for malformed
// payloads, 413 for oversized bodies, 415 for a disabled wire.
type wireError struct {
	status int
	err    error // carries the message, and through %w the read error behind it
}

func (e *wireError) Error() string { return e.err.Error() }
func (e *wireError) Unwrap() error { return e.err }

func badWire(format string, args ...any) *wireError {
	return &wireError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// wireRequest is one decoded /v1/multiply request plus the wire state the
// handler needs to respond and to release pooled storage afterwards: which
// wire it arrived on, how many wire bytes it occupied, the pooled operand
// buffers (binary wire) and the operand digests.
type wireRequest struct {
	req     MultiplyRequest
	wire    string // wireJSON or wireBinary
	gzipped bool   // request body arrived gzip-encoded
	bytesIn int64  // wire bytes of the request body (compressed size if gzipped)

	// bufs holds pooled operand storage in A, B, C order (nil entries on the
	// JSON wire). The request that decoded them is their one owner.
	bufs [3]*alignedBuf
	// result is the pooled storage of a small-route result the response
	// encodes out of (nil otherwise); it goes back with the operands.
	result *alignedBuf

	// Content addressing, in A, B, C order (filled by admit when the cache
	// is enabled); resultKey builds the cache key from them.
	dig              [3]digest
	validate, digest time.Duration // spent in admit's two passes

	// scratch is header/probe space for the binary decoder: reading into a
	// field of the (already heap-allocated) request keeps the steady-state
	// decode at zero allocations, where a local array would escape through
	// the io.Reader interface.
	scratch [binReqHeaderLen]byte

	// noPool marks a request whose engine run may have left rank
	// goroutines behind (watchdog leak) or was answered at its deadline
	// while still queued or executing:
	// its operand buffers are dropped for the GC instead of recycled, so
	// a zombie reader can never observe another request's decode landing
	// in them.
	noPool bool
}

// release returns the request's pooled storage to operandBufs, unless
// noPool withholds it. Must run after the response is written: the engine
// and the encoder read the operand slices in place.
func (wr *wireRequest) release() {
	if !wr.noPool {
		for _, b := range wr.bufs {
			operandBufs.put(b)
		}
		operandBufs.put(wr.result)
	}
	wr.bufs, wr.result = [3]*alignedBuf{}, nil
}

// countingReader counts wire bytes as they are read.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// binShape is the header-derived shape of one binary request, validated
// against the server bound before any buffer is sized from it.
type binShape struct {
	cs                     core.Case
	aRows, aCols           int
	bRows, bCols           int
	m, n                   int // result shape under the transpose case
	hasC                   bool
	alpha, beta            float64
	kernelThreads, timeout int
}

// parseBinHeader validates a request header, rejecting before the caller
// allocates anything: bad framing, out-of-range shapes and non-finite
// scalars all fail here.
func parseBinHeader(hdr *[binReqHeaderLen]byte, maxDim int) (binShape, *wireError) {
	var sh binShape
	if string(hdr[0:4]) != binReqMagic {
		return sh, badWire("bad magic %q (want %q)", hdr[0:4], binReqMagic)
	}
	if hdr[4] != binVersion {
		return sh, badWire("unsupported binary wire version %d (want %d)", hdr[4], binVersion)
	}
	if hdr[5] > 3 {
		return sh, badWire("bad transpose case %d (want 0..3)", hdr[5])
	}
	sh.cs = core.Case(hdr[5])
	if hdr[6]&^byte(binFlagHasC) != 0 {
		return sh, badWire("unknown flag bits 0x%02x", hdr[6]&^byte(binFlagHasC))
	}
	sh.hasC = hdr[6]&binFlagHasC != 0
	if hdr[7] != 0 {
		return sh, badWire("nonzero reserved header byte")
	}
	dims := [4]int{}
	for i := range dims {
		v := binary.LittleEndian.Uint32(hdr[8+4*i:])
		if v == 0 || int64(v) > int64(maxDim) {
			return sh, badWire("dimension %d out of range [1, %d]", v, maxDim)
		}
		dims[i] = int(v)
	}
	sh.aRows, sh.aCols, sh.bRows, sh.bCols = dims[0], dims[1], dims[2], dims[3]
	sh.alpha = math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:]))
	sh.beta = math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:]))
	if !isFinite(sh.alpha) || !isFinite(sh.beta) {
		return sh, badWire("alpha and beta must be finite")
	}
	kt := binary.LittleEndian.Uint32(hdr[40:])
	if kt > maxWireKernelThreads {
		return sh, badWire("kernel_threads %d out of range [0, %d]", kt, maxWireKernelThreads)
	}
	sh.kernelThreads = int(kt)
	sh.timeout = int(binary.LittleEndian.Uint32(hdr[44:]))
	sh.m, _ = opShape(sh.cs.TransA(), sh.aRows, sh.aCols)
	_, sh.n = opShape(sh.cs.TransB(), sh.bRows, sh.bCols)
	return sh, nil
}

// bodyLen is the exact identity-encoded body size the header implies.
func (sh binShape) bodyLen() int64 {
	elems := int64(sh.aRows)*int64(sh.aCols) + int64(sh.bRows)*int64(sh.bCols)
	if sh.hasC {
		elems += int64(sh.m) * int64(sh.n)
	}
	return binReqHeaderLen + 8*elems
}

// decodeBinaryRequest reads one binary request from r into wr, drawing
// operand storage from pool and admitting each operand as it lands.
// contentLength is the transport's claimed body size (-1 when unknown or
// gzip-compressed); when known it must match the header-derived size
// exactly — checked before allocation. On error wr owns the buffers drawn.
func decodeBinaryRequest(r io.Reader, contentLength int64, maxDim int, pool *bufPool, dg *digester, wr *wireRequest) *wireError {
	if _, err := io.ReadFull(r, wr.scratch[:]); err != nil {
		return badWire("truncated binary header: %w", err)
	}
	sh, werr := parseBinHeader(&wr.scratch, maxDim)
	if werr != nil {
		return werr
	}
	if contentLength >= 0 && contentLength != sh.bodyLen() {
		return badWire("content length %d does not match header-derived body size %d", contentLength, sh.bodyLen())
	}

	shapes := [3][2]int{{sh.aRows, sh.aCols}, {sh.bRows, sh.bCols}, {}}
	if sh.hasC {
		shapes[2] = [2]int{sh.m, sh.n}
	}
	for i, shp := range shapes {
		if shp[0] == 0 {
			continue
		}
		wr.bufs[i] = pool.get(shp[0] * shp[1])
		if err := readFloats(r, wr.bufs[i].data); err != nil {
			return badWire("truncated operand %c: %w", 'a'+i, err)
		}
		if werr := wr.admit(i, shp, wr.bufs[i].data, dg); werr != nil {
			return werr
		}
	}
	// The body must end exactly where the header said it would; trailing
	// bytes mean a framing bug (or a length-smuggling attempt).
	if n, _ := r.Read(wr.scratch[:1]); n != 0 {
		return badWire("trailing bytes after request body")
	}

	wr.req = MultiplyRequest{
		Case:  binCaseNames[sh.cs],
		ARows: sh.aRows, ACols: sh.aCols, A: wr.bufs[0].data,
		BRows: sh.bRows, BCols: sh.bCols, B: wr.bufs[1].data,
	}
	if sh.hasC {
		wr.req.C = wr.bufs[2].data
	}
	if sh.alpha != 1 {
		a := sh.alpha
		wr.req.Alpha = &a
	}
	if sh.beta != 0 {
		b := sh.beta
		wr.req.Beta = &b
	}
	wr.req.KernelThreads = sh.kernelThreads
	wr.req.TimeoutMillis = int64(sh.timeout)
	return nil
}

// encodeBinaryRequest is the client-side encoder (srumma-load, tests, the
// fuzz round-trip): the exact inverse of decodeBinaryRequest.
func encodeBinaryRequest(w io.Writer, req *MultiplyRequest) error {
	cs, err := parseCase(req.Case)
	if err != nil {
		return err
	}
	var hdr [binReqHeaderLen]byte
	copy(hdr[0:4], binReqMagic)
	hdr[4] = binVersion
	hdr[5] = byte(cs)
	if len(req.C) > 0 {
		hdr[6] |= binFlagHasC
	}
	binary.LittleEndian.PutUint32(hdr[8:], uint32(req.ARows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(req.ACols))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(req.BRows))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(req.BCols))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(req.alpha()))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(req.beta()))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(req.KernelThreads))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(req.TimeoutMillis))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, f := range [][]float64{req.A, req.B, req.C} {
		if err := writeFloats(w, f); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Response encode / decode.

// encodeBinaryResponse writes the response body: 16-byte header + result
// floats. Everything scalar about the response travels as X-Srumma-*
// headers (set by the caller); the body is pure data.
func encodeBinaryResponse(w io.Writer, rows, cols int, c []float64) error {
	var hdr [binRespHeaderLen]byte
	copy(hdr[0:4], binRespMagic)
	hdr[4] = binVersion
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cols))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return writeFloats(w, c)
}

// DecodeBinaryResponse parses a binary response body (client side).
func DecodeBinaryResponse(r io.Reader) (rows, cols int, c []float64, err error) {
	var hdr [binRespHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("truncated binary response header: %w", err)
	}
	if string(hdr[0:4]) != binRespMagic {
		return 0, 0, nil, fmt.Errorf("bad response magic %q", hdr[0:4])
	}
	if hdr[4] != binVersion {
		return 0, 0, nil, fmt.Errorf("unsupported binary wire version %d", hdr[4])
	}
	rows = int(binary.LittleEndian.Uint32(hdr[8:]))
	cols = int(binary.LittleEndian.Uint32(hdr[12:]))
	if rows <= 0 || cols <= 0 || int64(rows)*int64(cols) > int64(math.MaxInt32) {
		return 0, 0, nil, fmt.Errorf("bad response shape %dx%d", rows, cols)
	}
	c = make([]float64, rows*cols)
	if err = readFloats(r, c); err != nil {
		return 0, 0, nil, fmt.Errorf("truncated binary response body: %w", err)
	}
	return rows, cols, c, nil
}

// EncodeBinaryRequest marshals req onto the binary wire (client side).
func EncodeBinaryRequest(req *MultiplyRequest) ([]byte, error) {
	var sb sliceWriter
	if err := encodeBinaryRequest(&sb, req); err != nil {
		return nil, err
	}
	return sb.b, nil
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// ---------------------------------------------------------------------------
// HTTP glue.

// jsonBodyLimit bounds a JSON request body: three maxDim x maxDim operands
// at a worst-case ~32 text bytes per element, plus framing slack. Anything
// beyond it is refused mid-read rather than buffered.
func jsonBodyLimit(maxDim int) int64 {
	return 3*int64(maxDim)*int64(maxDim)*32 + 1<<16
}

// binBodyLimit bounds a binary request body independently of its header
// (the header-derived exact check is stricter, but gzip-encoded bodies
// have no trustworthy Content-Length to compare against).
func binBodyLimit(maxDim int) int64 {
	return 3*int64(maxDim)*int64(maxDim)*8 + binReqHeaderLen + 1<<12
}

// decodeRequest decodes one /v1/multiply body. A failure any byte limit
// caused — either wire, compressed or inflated — is a 413.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*wireRequest, *wireError) {
	t0 := time.Now()
	wr := &wireRequest{wire: wireJSON, gzipped: r.Header.Get("Content-Encoding") == "gzip"}
	if werr := s.decodeBody(w, r, wr); werr != nil {
		wr.release()
		var mbe *http.MaxBytesError
		if errors.As(werr, &mbe) {
			werr.status = http.StatusRequestEntityTooLarge
		}
		return nil, werr
	}
	s.met.decodeMs.Observe((time.Since(t0) - wr.validate - wr.digest).Seconds() * 1e3)
	s.met.validateMs.Observe(wr.validate.Seconds() * 1e3)
	if s.dg != nil {
		s.met.digestMs.Observe(wr.digest.Seconds() * 1e3)
	}
	return wr, nil
}

// decodeBody dispatches on Content-Type — the binary wire, or JSON for
// everything else — over a size-bounded, optionally gzipped, counted body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, wr *wireRequest) *wireError {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	limit := jsonBodyLimit(s.cfg.MaxDim)
	if ct == ContentTypeBinary {
		if s.cfg.JSONOnly {
			return &wireError{status: http.StatusUnsupportedMediaType, err: errors.New("binary wire disabled (server runs -json-only)")}
		}
		wr.wire = wireBinary
		limit = binBodyLimit(s.cfg.MaxDim)
	}
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, limit)}
	defer func() { wr.bytesIn = cr.n }()
	var body io.Reader = cr
	contentLength := r.ContentLength
	if wr.gzipped {
		gz, err := gzip.NewReader(cr)
		if err != nil {
			return badWire("bad gzip body: %w", err)
		}
		defer gz.Close()
		// cr bounds the compressed bytes only, and a small body can inflate
		// without end: hold what comes out of gz to the same limit.
		body = http.MaxBytesReader(w, gz, limit)
		contentLength = -1 // compressed size says nothing about the payload
	}
	if wr.wire == wireJSON {
		return decodeJSONRequest(body, s.dg, wr)
	}
	if werr := decodeBinaryRequest(body, contentLength, s.cfg.MaxDim, &operandBufs, s.dg, wr); werr != nil {
		return werr
	}
	// Scalars that have no binary field ride as headers.
	wr.req.ID = r.Header.Get("X-Srumma-Id")
	wr.req.Class = r.Header.Get("X-Srumma-Class")
	if v := r.Header.Get("X-Srumma-Deadline-Ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			return badWire("bad X-Srumma-Deadline-Ms %q", v)
		}
		wr.req.DeadlineMillis = ms
	}
	return nil
}

// decodeJSONRequest reads one JSON request from r into wr.
func decodeJSONRequest(r io.Reader, dg *digester, wr *wireRequest) *wireError {
	req := &wr.req
	if err := json.NewDecoder(r).Decode(req); err != nil {
		return badWire("bad request body: %w", err)
	}
	if !isFinite(req.alpha()) || !isFinite(req.beta()) {
		return badWire("alpha and beta must be finite")
	}
	cs, _ := parseCase(req.Case) // a bad case is the handler's to report
	m, _ := opShape(cs.TransA(), req.ARows, req.ACols)
	_, n := opShape(cs.TransB(), req.BRows, req.BCols)
	shapes := [3][2]int{{req.ARows, req.ACols}, {req.BRows, req.BCols}, {m, n}}
	for i, data := range [3][]float64{req.A, req.B, req.C} {
		if werr := wr.admit(i, shapes[i], data, dg); werr != nil {
			return werr
		}
	}
	return nil
}

// admit is the one look each operand gets on the way in, still warm from the
// read: the non-finite policy, then (cache on) its content address. A NaN
// poisons every block it meets and defeats both the ABFT checksums and
// content addressing (NaN != NaN): a malformed request, not an edge case.
func (wr *wireRequest) admit(i int, shape [2]int, data []float64, dg *digester) *wireError {
	t0 := time.Now()
	ok := allFinite(data)
	t1 := time.Now()
	wr.validate += t1.Sub(t0)
	if !ok {
		return badWire("operand %c contains a non-finite value", 'a'+i)
	}
	if dg != nil {
		wr.dig[i] = dg.sum(shape[0], shape[1], data)
		wr.digest += time.Since(t1)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite is isFinite over a whole operand: a float64 is NaN or Inf
// exactly when all eleven exponent bits are set, and adding one exponent ulp
// to the masked field carries into bit 63 only then. Four words fold without
// a branch; the verdict is tested per block, so a poisoned body is still
// refused early.
func allFinite(data []float64) bool {
	const exp, one = 0x7ff0000000000000, 1 << 52
	if len(data) == 0 {
		return true
	}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), len(data)) // the bit patterns, in place
	for ; len(w) >= 4; w = w[4:] {
		if ((w[0]&exp+one)|(w[1]&exp+one)|(w[2]&exp+one)|(w[3]&exp+one))>>63 != 0 {
			return false
		}
	}
	for _, x := range w {
		if x&exp == exp {
			return false
		}
	}
	return true
}
