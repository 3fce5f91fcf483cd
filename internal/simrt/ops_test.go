package simrt

import (
	"strings"
	"testing"

	"srumma/internal/rt"
)

func TestSimPackUnpackTranspose(t *testing.T) {
	res, err := Run(testProfile(), 1, func(c rt.Ctx) {
		src := c.LocalBuf(64)
		dst := c.LocalBuf(64)
		c.Pack(rt.Mat{Buf: src, LD: 8, Rows: 4, Cols: 8}, dst, 0)
		c.UnpackTranspose(dst, 0, rt.Mat{Buf: src, LD: 8, Rows: 8, Cols: 8})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].PackTime <= 0 {
		t.Fatal("pack cost not charged")
	}
}

func TestSimWriteReadBufValidateOnly(t *testing.T) {
	_, err := Run(testProfile(), 1, func(c rt.Ctx) {
		b := c.LocalBuf(8)
		c.WriteBuf(b, 0, make([]float64, 8))
		if c.ReadBuf(b, 0, 8) != nil {
			panic("sim ReadBuf must return nil")
		}
		if c.Topo().NProcs != 1 {
			panic("Topo wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Range violations surface as panics.
	_, err = Run(testProfile(), 1, func(c rt.Ctx) {
		b := c.LocalBuf(4)
		c.WriteBuf(b, 2, make([]float64, 8))
	})
	if err == nil || !strings.Contains(err.Error(), "WriteBuf") {
		t.Fatalf("err = %v", err)
	}
}
