package ipcrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func TestWireRoundTrip(t *testing.T) {
	cases := []frame{
		{Op: opHello, P: [5]int64{3}},
		{Op: opBarrier, Seq: 9},
		{Op: opMalloc, P: [5]int64{4096}},
		{Op: opMallocAck, P: [5]int64{7}, Body: putInt64s([]int64{16, 32, 0, 64})},
		{Op: opGetSub, Seq: 42, P: [5]int64{1, 128, 256, 1, 256}},
		{Op: opGetSub, Seq: 43, P: [5]int64{1, 10, 64, 8, 16}},
		{Op: opPutSub, Seq: 44, P: [5]int64{2, 0, 3, 1, 3}, Body: floatBytes([]float64{1.5, -2.25, math.Pi})},
		{Op: opAcc, Seq: 45, P: [5]int64{2, 8, float64bits(0.5)}, Body: floatBytes([]float64{4, 8})},
		{Op: opFetchAdd, Seq: 46, P: [5]int64{0, 3, float64bits(1)}},
		{Op: opMsg, P: [5]int64{2, 17}, Body: floatBytes([]float64{9})},
		{Op: opAck, Seq: 42, Body: floatBytes([]float64{0, 1, 2})},
		{Op: opErr, Seq: 44, Body: []byte("boom")},
		{Op: opFin, Body: []byte(`{"Rank":1}`)},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &want); err != nil {
			t.Fatalf("%v: write: %v", want.Op, err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", want.Op, err)
		}
		if got.Op != want.Op || got.Seq != want.Seq || got.P != want.P || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("%v: round trip mismatch: got %+v want %+v", want.Op, got, want)
		}
	}
}

// corrupt returns the encoding of f with mut applied to its header.
func corrupt(t *testing.T, f frame, mut func(h []byte)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	mut(raw[:headerLen])
	return raw
}

func TestWireMalformed(t *testing.T) {
	get := frame{Op: opGetSub, Seq: 1, P: [5]int64{1, 0, 8, 1, 8}}
	tests := []struct {
		name string
		raw  []byte
		want string
	}{
		{"version 1 header", corrupt(t, get, func(h []byte) { h[4] = 1 }), "wire version"},
		{"retired contiguous get", corrupt(t, get, func(h []byte) { h[5] = 11 }), "unknown op"},
		{"retired contiguous put", corrupt(t, get, func(h []byte) { h[5] = 13 }), "unknown op"},
		{"version 2 header", corrupt(t, get, func(h []byte) { h[4] = 2 }), "wire version"},
		{"retired source checksum", corrupt(t, get, func(h []byte) { h[5] = 18 }), "unknown op"},
		{"bad magic", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint32(h[0:4], 0xdeadbeef)
		}), "bad magic"},
		{"bad version", corrupt(t, get, func(h []byte) { h[4] = 99 }), "wire version"},
		{"zero op", corrupt(t, get, func(h []byte) { h[5] = 0 }), "unknown op"},
		{"op out of range", corrupt(t, get, func(h []byte) { h[5] = byte(opCount) }), "unknown op"},
		{"reserved bytes set", corrupt(t, get, func(h []byte) { h[6] = 1 }), "reserved"},
		{"oversized body", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], uint64(maxBodyLen)+1)
		}), "body length"},
		{"negative body (wrapped)", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], math.MaxUint64)
		}), "body length"},
		{"negative segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		}), "segment id"},
		{"huge segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], uint64(maxSegID)+1)
		}), "segment id"},
		{"negative offset", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[24:32], math.MaxUint64)
		}), "offset"},
		{"huge offset", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[24:32], uint64(maxElems)+1)
		}), "offset"},
		{"huge get count", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[40:48], uint64(maxElems)+1) // rows
		}), "too large"},
		{"get-sub ld < cols", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 4, 2, 8}},
			func(h []byte) {}), "malformed region"},
		{"get-sub negative rows", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 8, -1, 8}},
			func(h []byte) {}), "malformed region"},
		{"get-sub huge ld", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, maxElems + 1, 1, 1}},
			func(h []byte) {}), "too large"},
		{"get-sub product overflow", corrupt(t, frame{Op: opGetSub,
			P: [5]int64{1, 0, maxElems, maxElems, maxElems}}, func(h []byte) {}), "region ends at"},
		{"put body not float-aligned", corrupt(t, frame{Op: opPutSub, P: [5]int64{1, 0, 2, 1, 2}, Body: make([]byte, 12)},
			func(h []byte) {}), "not whole float64s"},
		{"msg body not float-aligned", corrupt(t, frame{Op: opMsg, P: [5]int64{0, 1}, Body: make([]byte, 7)},
			func(h []byte) {}), "not whole float64s"},
		{"malloc huge count", corrupt(t, frame{Op: opMalloc, P: [5]int64{maxElems + 1}},
			func(h []byte) {}), "element count"},
		{"hello negative rank", corrupt(t, frame{Op: opHello}, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		}), "negative rank"},
		{"msg negative source", corrupt(t, frame{Op: opMsg}, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		}), "negative source"},
		{"put body shorter than its region", corrupt(t, frame{Op: opPutSub, P: [5]int64{1, 0, 4, 1, 4}, Body: make([]byte, 16)},
			func(h []byte) {}), "for a 1x4 region"},
		{"get-sub request with a body", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 4, 1, 4}, Body: make([]byte, 8)},
			func(h []byte) {}), "limit 0"},
		{"barrier with a body", corrupt(t, frame{Op: opBarrier, Body: make([]byte, 8)}, func(h []byte) {}), "limit 0"},
		{"error text past its limit", corrupt(t, frame{Op: opErr}, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], uint64(maxErrLen)+1)
		}), "exceeds the op's limit"},
		{"hostile header: 256 MiB declared, EOF", hostileHeader(), "short body"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if n := allocated(func() { _, err = readFrame(bytes.NewReader(tc.raw)) }); n >= 1<<20 {
				t.Errorf("refusing the frame allocated %d bytes, want < 1 MiB", n)
			}
			if err == nil {
				t.Fatalf("malformed frame accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// hostileHeader is a valid put-sub header whose declared body — its 1 x 2^25
// region, 256 MiB — never follows.
func hostileHeader() []byte {
	h := make([]byte, headerLen)
	putHeader(h, &frame{Op: opPutSub, Seq: 1, P: [5]int64{1, 0, 1 << 25, 1, 1 << 25}})
	binary.LittleEndian.PutUint64(h[56:64], 8<<25)
	return h
}

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireBodyGrowsWithBytes: a body larger than the first chunk still
// arrives whole, through the doubling reads.
func TestWireBodyGrowsWithBytes(t *testing.T) {
	vals := make([]float64, 3*bodyChunk/8+5)
	for i := range vals {
		vals[i] = float64(i)
	}
	var buf bytes.Buffer
	want := frame{Op: opPutSub, Seq: 2, P: [5]int64{1, 0, int64(len(vals)), 1, int64(len(vals))}, Body: floatBytes(vals)}
	if err := writeFrame(&buf, &want); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(iotest.OneByteReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("body of %d bytes came back as %d different bytes", len(want.Body), len(got.Body))
	}
}

func TestWireTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Op: opPutSub, P: [5]int64{1, 0, 16, 1, 16}, Body: floatBytes(make([]float64, 16))}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncated header.
	if _, err := readFrame(bytes.NewReader(raw[:headerLen-8])); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncated body.
	if _, err := readFrame(bytes.NewReader(raw[:headerLen+24])); err == nil {
		t.Error("truncated body accepted")
	} else if err == io.ErrUnexpectedEOF {
		t.Error("truncated body error lost frame context")
	}
}

func TestFloatBytesRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	b := floatBytes(vals)
	if len(b) != len(vals)*8 {
		t.Fatalf("floatBytes length %d", len(b))
	}
	// The wire is defined as little-endian regardless of host.
	if got := math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])); got != 1.5 {
		t.Fatalf("element 1 encodes to %v", got)
	}
	out := make([]float64, len(vals))
	copyFloats(out, b)
	for i := range vals {
		if math.Float64bits(out[i]) != math.Float64bits(vals[i]) {
			t.Errorf("element %d: %v != %v", i, out[i], vals[i])
		}
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	vals := []int64{0, -1, 1 << 40, math.MaxInt64}
	out, err := getInt64s(putInt64s(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Errorf("element %d: %d != %d", i, out[i], vals[i])
		}
	}
	if _, err := getInt64s(make([]byte, 9)); err == nil {
		t.Error("ragged int64 body accepted")
	}
}
