package simrt

import (
	"strings"
	"testing"

	"srumma/internal/rt"
)

func TestSimAccChargesOwnerSteal(t *testing.T) {
	prof := testProfile()
	prof.CopyBW = 1e9
	res, err := Run(prof, 4, func(c rt.Ctx) {
		g := c.Malloc(1 << 14)
		c.Barrier()
		if c.Rank() == 0 {
			src := c.LocalBuf(1 << 14)
			c.Acc(1, src, 0, 1<<14, g, 2, 0)
		}
		c.Barrier()
		if c.Rank() == 2 {
			// Victim's next compute absorbs the accumulate work.
			b := c.LocalBuf(64)
			m := rt.Mat{Buf: b, LD: 8, Rows: 8, Cols: 8}
			cb := c.LocalBuf(64)
			c.Gemm(1, m, m, 0, rt.Mat{Buf: cb, LD: 8, Rows: 8, Cols: 8})
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[2].StealTime <= 0 {
		t.Fatal("owner not charged for the accumulate")
	}
	if res.Stats[0].StealTime != 0 {
		t.Fatal("initiator wrongly charged")
	}
}

func TestSimLocalAccAdvancesCaller(t *testing.T) {
	res, err := Run(testProfile(), 2, func(c rt.Ctx) {
		g := c.Malloc(1 << 12)
		if c.Rank() == 0 {
			src := c.LocalBuf(1 << 12)
			c.Acc(1, src, 0, 1<<12, g, 0, 0) // self-accumulate
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("local accumulate cost nothing")
	}
}

func TestSimPackUnpackTranspose(t *testing.T) {
	res, err := Run(testProfile(), 1, func(c rt.Ctx) {
		src := c.LocalBuf(64)
		dst := c.LocalBuf(64)
		c.Pack(rt.Mat{Buf: src, LD: 8, Rows: 4, Cols: 8}, dst, 0)
		c.Unpack(dst, 0, rt.Mat{Buf: src, LD: 8, Rows: 4, Cols: 8})
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

func TestSimFetchAddRangeError(t *testing.T) {
	_, err := Run(testProfile(), 2, func(c rt.Ctx) {
		g := c.Malloc(2)
		c.FetchAdd(g, 0, 7, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "FetchAdd") {
		t.Fatalf("err = %v", err)
	}
}
