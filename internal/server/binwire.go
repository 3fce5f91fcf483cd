package server

// Dense binary wire format for /v1/multiply — the serving hot path without
// float→decimal text. A request is a fixed 48-byte little-endian header
// (shape, case, alpha/beta, per-request knobs) followed by the operands as
// raw little-endian float64 arrays: A, then B, then (when flagged) the
// input C. A response is a 16-byte header followed by the result floats.
// The request identity — a string, not bulk data — rides as the
// X-Srumma-Id HTTP header.
//
// The decoder is zero-copy on little-endian hosts: the body is read with
// io.ReadFull directly into the float64 backing store of a buffer from the
// process's buffer pool (mat.GetBuf: 64-byte aligned, at most an eighth
// larger than the operand), reinterpreted as bytes via unsafe.Slice, and
// that buffer flows into the engine as the operand — no intermediate
// []byte staging and no per-element conversion. On a big-endian host the
// same path runs with an in-place byte swap after the read, so the wire
// image is identical everywhere.
//
// Admission runs on the way in, not after: the operand buffer is filled
// window by window (admitWindow, 64 KiB), and each window gets the one
// admission pass (scan.go) while it is still in cache from the read — the
// finite test and, with the cache on, the next stretch of the operand's
// GHASH content address — so a poisoned window is refused before the next
// one is read.
//
// Resource protection happens BEFORE allocation: the header's shapes are
// validated against the server's MaxDim bound, and (for identity-encoded
// bodies) the Content-Length must equal the header-derived body size
// exactly, so a hostile or truncated request is refused without ever
// sizing a buffer from attacker-controlled lengths. A body that stops
// arriving is cut off at the server's MaxTimeout, so a silent client cannot
// pin the buffers its header drew.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"os"
	"strings"
	"time"
	"unsafe"

	"srumma/internal/core"
	"srumma/internal/mat"
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
// Request decode.

// wireError is a decode failure with its HTTP status: 400 for malformed
// payloads, 413 for oversized bodies.
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
	bytesIn int64  // wire bytes of the request body

	// bufs holds pooled operand storage in A, B, C order (nil entries on the
	// JSON wire). The request that decoded them is their one owner.
	bufs [3]*mat.Buf
	// result is the pooled storage of a result the response encodes out of
	// (nil otherwise); it goes back with the operands.
	result *mat.Buf

	// Content addressing, in A, B, C order (filled by seal when the cache
	// is enabled); resultKey builds the cache key from them.
	dig [3]digest
	// gh is the content address of the operand being admitted, advanced
	// window by window (vector path, cache on).
	gh ghash
	// Time in the admission pass: validate when it is the finite scan
	// alone, digest when it also advances the GHASH, and sealing.
	validate, digest time.Duration

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

// release gives the request's pooled storage back to the buffer pool,
// unless noPool withholds it. Must run after the response is written: the
// engine and the encoder read the operand slices in place.
func (wr *wireRequest) release() {
	if !wr.noPool {
		for _, b := range wr.bufs {
			mat.PutBuf(b)
		}
		mat.PutBuf(wr.result)
	}
	wr.bufs, wr.result = [3]*mat.Buf{}, nil
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
// operand storage from the buffer pool and admitting each operand as it
// lands.
// contentLength is the transport's claimed body size (-1 when unknown);
// when known it must match the header-derived size
// exactly — checked before allocation. On error wr owns the buffers drawn.
func decodeBinaryRequest(r io.Reader, contentLength int64, maxDim int, dg *digester, wr *wireRequest) *wireError {
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
		wr.bufs[i] = mat.GetBuf(shp[0] * shp[1])
		data := wr.bufs[i].Data
		if werr := wr.readOperand(r, i, data, dg); werr != nil {
			return werr
		}
		wr.seal(i, shp, data, dg)
	}
	// The body must end exactly where the header said it would; trailing
	// bytes mean a framing bug (or a length-smuggling attempt).
	if n, _ := r.Read(wr.scratch[:1]); n != 0 {
		return badWire("trailing bytes after request body")
	}

	wr.req = MultiplyRequest{
		Case:  binCaseNames[sh.cs],
		ARows: sh.aRows, ACols: sh.aCols, A: wr.bufs[0].Data,
		BRows: sh.bRows, BCols: sh.bCols, B: wr.bufs[1].Data,
	}
	if sh.hasC {
		wr.req.C = wr.bufs[2].Data
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

// readOperand fills data, operand i, with little-endian float64s from r,
// reading the wire bytes directly into its backing store. Each read asks for
// all that is still missing, so the transport hands over what it has; every
// admitWindow-sized window gets the admission pass as soon as it has landed,
// so a poisoned window is refused before the rest of the operand is read.
func (wr *wireRequest) readOperand(r io.Reader, i int, data []float64, dg *digester) *wireError {
	b := floatBytes(data)
	for got, done := 0, 0; done < len(data); {
		n, err := r.Read(b[got:])
		got += n
		for done+admitWindow <= got/8 || done < len(data) && got == len(b) {
			win := data[done:min(done+admitWindow, len(data))]
			if !hostLittleEndian {
				for j := range win {
					win[j] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(win[j])))
				}
			}
			if werr := wr.scan(i, win, dg); werr != nil {
				return werr
			}
			done += len(win)
		}
		if err != nil && done < len(data) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return badWire("truncated operand %c: %w", 'a'+i, err)
		}
	}
	return nil
}

// EncodeBinaryRequest marshals req onto the binary wire (client side:
// srumma-load, the benchmark, tests): the exact inverse of
// decodeBinaryRequest, written into one buffer of exactly the body's size.
func EncodeBinaryRequest(req *MultiplyRequest) ([]byte, error) {
	cs, err := parseCase(req.Case)
	if err != nil {
		return nil, err
	}
	b := make([]byte, binReqHeaderLen, binReqHeaderLen+8*(len(req.A)+len(req.B)+len(req.C)))
	copy(b[0:4], binReqMagic)
	b[4] = binVersion
	b[5] = byte(cs)
	if len(req.C) > 0 {
		b[6] |= binFlagHasC
	}
	binary.LittleEndian.PutUint32(b[8:], uint32(req.ARows))
	binary.LittleEndian.PutUint32(b[12:], uint32(req.ACols))
	binary.LittleEndian.PutUint32(b[16:], uint32(req.BRows))
	binary.LittleEndian.PutUint32(b[20:], uint32(req.BCols))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(req.alpha()))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(req.beta()))
	binary.LittleEndian.PutUint32(b[40:], uint32(req.KernelThreads))
	binary.LittleEndian.PutUint32(b[44:], uint32(req.TimeoutMillis))
	for _, f := range [][]float64{req.A, req.B, req.C} {
		if hostLittleEndian {
			b = append(b, floatBytes(f)...)
			continue
		}
		for _, v := range f {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
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

// ---------------------------------------------------------------------------
// HTTP glue.

// jsonBodyLimit bounds a JSON request body: three maxDim x maxDim operands
// at a worst-case ~32 text bytes per element, plus framing slack. Anything
// beyond it is refused mid-read rather than buffered.
func jsonBodyLimit(maxDim int) int64 {
	return 3*int64(maxDim)*int64(maxDim)*32 + 1<<16
}

// binBodyLimit bounds a binary request body independently of its header.
// The decoder reads no more than the header-derived size plus one byte, so
// this is a second fence, not the bound a body meets.
func binBodyLimit(maxDim int) int64 {
	return 3*int64(maxDim)*int64(maxDim)*8 + binReqHeaderLen + 1<<12
}

// decodeRequest decodes one /v1/multiply body. A failure the byte limit
// caused, on either wire, is a 413; a body that
// stopped arriving before the read deadline is a 408.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*wireRequest, *wireError) {
	t0 := time.Now()
	// A body that stops arriving must not hold the buffers its header drew:
	// the read fails at the deadline and the request is answered. Recorders
	// without a connection cannot arm one, and have nothing to stall.
	rc := http.NewResponseController(w)
	armed := rc.SetReadDeadline(time.Now().Add(s.cfg.MaxTimeout)) == nil
	wr := &wireRequest{wire: wireJSON}
	if werr := s.decodeBody(w, r, wr); werr != nil {
		// A refused body is read no further: the rest of it, still in
		// flight, is not drained before the answer, and the connection
		// closes after it.
		if armed {
			rc.SetReadDeadline(time.Now())
		}
		wr.release()
		var mbe *http.MaxBytesError
		if errors.As(werr, &mbe) {
			werr.status = http.StatusRequestEntityTooLarge
		} else if errors.Is(werr, os.ErrDeadlineExceeded) {
			werr.status = http.StatusRequestTimeout
		}
		return nil, werr
	}
	if armed {
		rc.SetReadDeadline(time.Time{})
	}
	s.met.decodeMs.Observe((time.Since(t0) - wr.validate - wr.digest).Seconds() * 1e3)
	s.met.validateMs.Observe(wr.validate.Seconds() * 1e3)
	if s.dg != nil {
		s.met.digestMs.Observe(wr.digest.Seconds() * 1e3)
	}
	return wr, nil
}

// decodeBody dispatches on Content-Type — the binary wire, or JSON for
// everything else — over a size-bounded, counted body. The body is read as
// it arrives: a Content-Encoding is not undone, so an encoded body fails
// to decode.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, wr *wireRequest) *wireError {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	limit := jsonBodyLimit(s.cfg.MaxDim)
	if ct == ContentTypeBinary {
		wr.wire = wireBinary
		limit = binBodyLimit(s.cfg.MaxDim)
	}
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, limit)}
	defer func() { wr.bytesIn = cr.n }()
	if wr.wire == wireJSON {
		return decodeJSONRequest(cr, s.dg, wr)
	}
	if werr := decodeBinaryRequest(cr, r.ContentLength, s.cfg.MaxDim, s.dg, wr); werr != nil {
		return werr
	}
	// The one scalar that has no binary field rides as a header.
	wr.req.ID = r.Header.Get("X-Srumma-Id")
	return nil
}

// decodeJSONRequest reads one JSON request from r into wr.
func decodeJSONRequest(r io.Reader, dg *digester, wr *wireRequest) *wireError {
	req := &wr.req
	dec := json.NewDecoder(r)
	if err := dec.Decode(req); err != nil {
		return badWire("bad request body: %w", err)
	}
	// As on the binary wire, the body ends where the request does: a
	// Content-Length that claims more than the client sent, or anything
	// but white space after the object, is a malformed request.
	for rest := io.MultiReader(dec.Buffered(), r); ; {
		n, err := rest.Read(wr.scratch[:])
		if len(bytes.TrimLeft(wr.scratch[:n], " \t\r\n")) > 0 {
			return badWire("trailing bytes after request body")
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return badWire("request body does not end after the JSON object: %w", err)
		}
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

// admitWindow is how many elements of an operand land before the admission
// pass looks at them: small enough to stay in cache from the read, large
// enough that the pass's per-call cost is noise.
const admitWindow = 64 << 10 / 8

// admit is the one look each operand gets on the way in: scan over the whole
// operand, then seal. A NaN poisons every block it meets and defeats both
// the ABFT checksums and content addressing (NaN != NaN): a malformed
// request, not an edge case.
func (wr *wireRequest) admit(i int, shape [2]int, data []float64, dg *digester) *wireError {
	if werr := wr.scan(i, data, dg); werr != nil {
		return werr
	}
	wr.seal(i, shape, data, dg)
	return nil
}

// scan is the admission pass over win, the next landed window of operand i,
// still warm from the read. With the cache on and the vector kernel
// present, one pass tests every exponent and advances the operand's GHASH
// (booked as digest time); otherwise it is the finite scan alone (booked as
// validate time).
func (wr *wireRequest) scan(i int, win []float64, dg *digester) *wireError {
	t0 := time.Now()
	var ok bool
	if dg != nil && dg.pow != nil {
		ok = dg.fold(&wr.gh, win)
		wr.digest += time.Since(t0)
	} else {
		ok = finite(win)
		wr.validate += time.Since(t0)
	}
	if !ok {
		return badWire("operand %c contains a non-finite value", 'a'+i)
	}
	return nil
}

// seal records operand i's content address once all of data has passed
// scan (cache on): the GHASH scan advanced, sealed, or — without the vector
// kernel — the whole operand through the standard library's GCM.
func (wr *wireRequest) seal(i int, shape [2]int, data []float64, dg *digester) {
	if dg == nil {
		return
	}
	t0 := time.Now()
	if dg.pow != nil {
		wr.dig[i] = dg.seal(&wr.gh, shape[0], shape[1])
	} else {
		wr.dig[i] = dg.sumGCM(shape[0], shape[1], data)
	}
	wr.digest += time.Since(t0)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite is isFinite over a whole operand, the portable finite scan: a
// float64 is NaN or Inf exactly when all eleven exponent bits are set, and
// adding one exponent ulp to the masked field carries into bit 63 only then.
// Four words fold without a branch; the verdict is tested per block, so a
// poisoned window is still refused early.
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
