package mat

// The process's one pool of float64 buffers. Every buffer the program
// recycles comes from here: the server's decoded operands and results, the
// engines' scratch and mailbox payloads, the two-level multiply's band and
// the kernel's pack panels.
//
// Size classes step by an eighth of an octave: a request for n elements
// with 2^o < n <= 2^(o+1) is served from a buffer of n rounded up to a
// multiple of 2^(o-3), so a buffer is never more than n/8 larger than asked
// for (powers of two and their eighths fit exactly). Below 64 elements the
// step is 8 elements, one cache line. Every buffer starts on a 64-byte
// boundary, so the kernel's streaming loads are line-aligned whichever
// caller produced them. Contents are unspecified: a buffer comes back as
// its last user left it, so its taker writes before it reads.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	bufAlign      = 64 // bytes
	bufFloor      = 8  // smallest class step, elements: one cache line
	bufSteps      = 8  // classes per octave above the floor
	bufFloorElems = bufFloor * bufSteps
	// bufMaxElems is the largest pooled request (2^27 elements, 1 GiB);
	// anything larger is allocated on its own and left to the collector.
	bufMaxElems = 1 << 27
)

// bufPools holds one sync.Pool per size class: the floor's eight classes,
// then eight per octave from 2^6 up to bufMaxElems.
var bufPools [bufSteps + bufSteps*(27-6)]sync.Pool

// bufHeld counts the bytes of class storage handed out by GetBuf and not
// yet given back to PutBuf.
var bufHeld atomic.Int64

// bufClass returns n's size class and the element count of that class's
// buffers (n >= 1). cls is -1 when n is beyond the largest class.
func bufClass(n int) (cls, size int) {
	if n <= bufFloorElems {
		c := (n + bufFloor - 1) / bufFloor
		return c - 1, c * bufFloor
	}
	if n > bufMaxElems {
		return -1, n
	}
	o := bits.Len(uint(n-1)) - 1 // 2^o < n <= 2^(o+1)
	shift := o - 3               // log2 of the octave's step
	j := (n - 1 - 1<<o) >> shift // which eighth of the octave
	return bufSteps + (o-6)*bufSteps + j, 1<<o + (j+1)<<shift
}

// Buf is a float64 buffer from the pool: Data holds len(Data) elements
// starting on a 64-byte boundary, and cap(Data) is its class size. A Buf
// built by hand (the zero value plus Data) is memory the pool does not own:
// PutBuf refuses it. Len makes *Buf an engine buffer.
type Buf struct {
	Data []float64
	cls  int  // size class, -1 for a request no class holds
	made bool // handed out by GetBuf
	free bool // in the pool
}

// Len returns len(b.Data).
func (b *Buf) Len() int { return len(b.Data) }

// GetBuf returns a buffer with len(Data) == n (n <= 0 gives an empty one).
// Its contents are unspecified.
func GetBuf(n int) *Buf {
	if n <= 0 {
		return &Buf{cls: -1, made: true}
	}
	cls, size := bufClass(n)
	bufHeld.Add(int64(size) * 8)
	if cls < 0 {
		return &Buf{Data: alignedAlloc(n), cls: -1, made: true}
	}
	b, _ := bufPools[cls].Get().(*Buf)
	if b == nil {
		return &Buf{Data: alignedAlloc(size)[:n], cls: cls, made: true}
	}
	b.free = false
	b.Data = b.Data[:n]
	return b
}

// alignedAlloc allocates size elements starting on a cache line. The
// runtime allocates a class (a whole number of cache lines) line-aligned
// but only promises 8 bytes, so a misaligned allocation is redone with a
// lead-in to slide over.
func alignedAlloc(size int) []float64 {
	raw := make([]float64, size)
	if lead(raw) != 0 {
		raw = make([]float64, size+bufAlign/8-1)
		raw = raw[lead(raw):][:size:size]
	}
	return raw
}

// lead returns how many elements into b the next cache line starts.
func lead(b []float64) int { return int(-uintptr(unsafe.Pointer(&b[0])) % bufAlign / 8) }

// PutBuf gives b back to the pool; nil is a no-op. It panics on a Buf
// GetBuf did not hand out, or one already given back: pooling either would
// alias live or recycled memory into a later GetBuf.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	if !b.made {
		panic("mat: PutBuf of a buffer GetBuf did not hand out")
	}
	if b.free {
		panic("mat: PutBuf of a buffer already in the pool")
	}
	bufHeld.Add(-int64(cap(b.Data)) * 8)
	b.free = true
	if b.cls >= 0 {
		bufPools[b.cls].Put(b)
	}
}

// BufHeld reports the bytes of pooled storage currently handed out: drawn
// by GetBuf and not yet given back.
func BufHeld() int64 { return bufHeld.Load() }
