package mat

import (
	"testing"
	"unsafe"
)

// classFits reports whether bufClass(n) keeps the pool's promises: the
// class exists, its buffers hold n, and they waste at most an eighth of n
// (or, below the floor, less than one cache line).
func classFits(n int) (cls, size int, ok bool) {
	cls, size = bufClass(n)
	slack := size - n
	return cls, size, cls >= 0 && cls < len(bufPools) && slack >= 0 && slack <= max(n/8, bufFloor-1)
}

// checkBuf holds one GetBuf(n) to its contract: n elements, the class's
// capacity, a cache-line-aligned start.
func checkBuf(t *testing.T, b *Buf, n int) {
	t.Helper()
	_, size := bufClass(n)
	if len(b.Data) != n || cap(b.Data) != size {
		t.Fatalf("GetBuf(%d): len %d cap %d, want %d and %d", n, len(b.Data), cap(b.Data), n, size)
	}
	if addr := uintptr(unsafe.Pointer(unsafe.SliceData(b.Data))); addr%bufAlign != 0 {
		t.Fatalf("GetBuf(%d): start %#x not %d-byte aligned", n, addr, bufAlign)
	}
}

// TestBufClassesFit walks every pooled request size: each class is one
// contiguous run of n that ends exactly at its size, classes are numbered
// in order without gaps, and the last one ends at bufMaxElems.
func TestBufClassesFit(t *testing.T) {
	if testing.Short() {
		t.Skip("walks 2^27 sizes")
	}
	prev, prevSize := -1, 0
	for n := 1; n <= bufMaxElems; n++ {
		cls, size, ok := classFits(n)
		if !ok {
			t.Fatalf("n=%d: class %d of size %d", n, cls, size)
		}
		if cls != prev {
			if cls != prev+1 || n != prevSize+1 {
				t.Fatalf("n=%d opens class %d (size %d) after class %d ended at %d", n, cls, size, prev, prevSize)
			}
			prev, prevSize = cls, size
		} else if size != prevSize {
			t.Fatalf("n=%d: class %d has size %d and %d", n, cls, prevSize, size)
		}
	}
	if prev != len(bufPools)-1 || prevSize != bufMaxElems {
		t.Fatalf("last class %d ends at %d, want %d ending at %d", prev, prevSize, len(bufPools)-1, bufMaxElems)
	}
	if cls, _ := bufClass(bufMaxElems + 1); cls != -1 {
		t.Fatalf("a request past the largest class maps to class %d", cls)
	}
}

// TestBufRecycles: every class's buffers, drawn at either end of the
// class, come out aligned and sized, and once warm a draw and give-back
// allocates nothing: what one request gave back serves the next.
func TestBufRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	for n, size := 1, 0; n <= 1<<18; n = size + 1 {
		_, size = bufClass(n)
		for _, m := range []int{n, size} {
			cycle := func() {
				b := GetBuf(m)
				checkBuf(t, b, m)
				PutBuf(b)
			}
			if avg := testing.AllocsPerRun(4, cycle); avg != 0 {
				t.Fatalf("GetBuf(%d)/PutBuf allocates %.1f objects once warm, want 0", m, avg)
			}
		}
	}
}

// TestBufOwnership: the pool refuses what it does not own or already holds,
// and counts what is out.
func TestBufOwnership(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("PutBuf(hand-built)", func() { PutBuf(&Buf{Data: make([]float64, 64)}) })
	held := BufHeld()
	b := GetBuf(1000)
	if got := BufHeld() - held; got != int64(cap(b.Data))*8 {
		t.Fatalf("GetBuf(1000) holds %d B, want %d", got, cap(b.Data)*8)
	}
	PutBuf(b)
	mustPanic("second PutBuf", func() { PutBuf(b) })
	if got := BufHeld(); got != held {
		t.Fatalf("after PutBuf %d B held, want %d", got, held)
	}
	PutBuf(nil)
	PutBuf(GetBuf(0))
}

// FuzzBufClass checks the class function at fuzzer-chosen sizes, and at
// sizes up to 2^20 draws, aligns, recycles and redraws the buffer.
func FuzzBufClass(f *testing.F) {
	for _, n := range []uint32{1, 7, 8, 9, 64, 65, 72, 73, 128, 129, 4096, 4097, 589824, 1 << 27} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n32 uint32) {
		n := int(n32 % bufMaxElems)
		if n == 0 {
			n = bufMaxElems
		}
		if cls, size, ok := classFits(n); !ok {
			t.Fatalf("n=%d: class %d of size %d", n, cls, size)
		}
		if n > 1<<20 {
			return
		}
		b := GetBuf(n)
		checkBuf(t, b, n)
		PutBuf(b)
		b = GetBuf(n)
		checkBuf(t, b, n)
		PutBuf(b)
	})
}
