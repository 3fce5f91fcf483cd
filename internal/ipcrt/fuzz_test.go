package ipcrt

import (
	"bytes"
	"testing"
)

// FuzzIPCWire drives arbitrary bytes through the frame reader. Accepted
// frames must re-encode and re-parse to the same frame (the codec is
// canonical); everything else must be rejected without panicking or
// allocating the declared body.
func FuzzIPCWire(f *testing.F) {
	seed := []frame{
		{Op: opHello, P: [5]int64{2}},
		{Op: opGetSub, Seq: 7, P: [5]int64{1, 64, 32, 1, 32}},
		{Op: opGetSub, Seq: 8, P: [5]int64{1, 0, 16, 4, 8}},
		{Op: opPutSub, Seq: 9, P: [5]int64{0, 8, 3, 1, 3}, Body: floatBytes([]float64{1, 2, 3})},
		{Op: opMallocAck, P: [5]int64{3}, Body: putInt64s([]int64{8, 8})},
		{Op: opErr, Seq: 5, Body: []byte("nope")},
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
		got, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &got); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		again, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-parsing re-encoded frame: %v", err)
		}
		if again.Op != got.Op || again.Seq != got.Seq || again.P != got.P || !bytes.Equal(again.Body, got.Body) {
			t.Fatalf("canonical round trip mismatch: %+v vs %+v", again, got)
		}
	})
}
