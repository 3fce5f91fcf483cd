package server

// The admission pass: what each operand window gets as soon as it lands.
// On a CPU with AVX-512 and VPCLMULQDQ (vectorScan) one pass per window
// tests every exponent and, with the cache on, advances the operand's GHASH;
// sealing the GHASH at the operand's end gives exactly the digest the
// standard library's GCM computes (digester.sumGCM, the portable path and
// the oracle the tests hold the kernel to). Without the instructions a
// window gets allFinite and the operand is digested whole once it has
// landed.

import (
	"encoding/binary"
	"unsafe"
)

// ghash is one operand's content address in progress on the vector path:
// the accumulator, the element a window that ended mid-block held over, and
// how many elements went in. blk holds the held-over element, its padding
// and the length block, then the counter block the tag is computed in —
// inside the state, so that sealing allocates nothing.
type ghash struct {
	acc  [16]byte
	blk  [32]byte
	held bool
	n    int
}

// finite reports whether every element of data is finite: the vector scan
// where the CPU has it, allFinite elsewhere.
func finite(data []float64) bool {
	k := len(data) &^ 7
	if !vectorScan || k == 0 {
		return allFinite(data)
	}
	return finiteAVX512(unsafe.Pointer(&data[0]), 8*k) && allFinite(data[k:])
}

// fold feeds data, the next elements of an operand, into g and reports
// whether all of them are finite. Vector path only (dg.pow != nil).
func (dg *digester) fold(g *ghash, data []float64) bool {
	ok := true
	g.n += len(data)
	if g.held && len(data) > 0 {
		copy(g.blk[8:16], floatBytes(data[:1]))
		ok = isFinite(data[0])
		ghashAVX512(&g.acc, dg.pow, unsafe.Pointer(&g.blk[0]), 16)
		g.held, data = false, data[1:]
	}
	if even := len(data) &^ 1; even > 0 {
		ok = ghashAVX512(&g.acc, dg.pow, unsafe.Pointer(&data[0]), 8*even) && ok
		data = data[even:]
	}
	if len(data) == 1 {
		copy(g.blk[:8], floatBytes(data))
		g.held = true
		ok = ok && isFinite(data[0])
	}
	return ok
}

// seal finishes GCM's GHASH over everything folded into g — the held-over
// element zero-padded, then the length block — masks it with AES_k1(J0),
// the counter block of the shape nonce, and returns the tag through the
// second key: the digest sumGCM computes. It leaves g ready for the next
// operand.
func (dg *digester) seal(g *ghash, rows, cols int) (d digest) {
	tail := g.blk[16:]
	if g.held {
		clear(g.blk[8:16])
		tail = g.blk[:]
	}
	binary.BigEndian.PutUint64(g.blk[16:], uint64(g.n)*64) // additional data, in bits
	clear(g.blk[24:])                                      // plaintext: none
	ghashAVX512(&g.acc, dg.pow, unsafe.Pointer(&tail[0]), len(tail))

	j0 := g.blk[:16]
	binary.LittleEndian.PutUint32(j0[0:], uint32(rows))
	binary.LittleEndian.PutUint32(j0[4:], uint32(cols))
	binary.BigEndian.PutUint64(j0[8:], 1)
	dg.enc.Encrypt(j0, j0)
	for i := range j0 {
		j0[i] ^= g.acc[15-i]
	}
	dg.prp.Encrypt(j0, j0)
	copy(d[:], j0)
	*g = ghash{}
	return d
}

// ghashPowers returns H^64, ..., H^1 in the kernel's form for the hash key
// h = AES_k1(0¹²⁸): each block's bytes reversed and read as a little-endian
// 128-bit integer, times x, which is how the standard library's GCM
// assembly keeps them.
func ghashPowers(h []byte) *[64][16]byte {
	x := [2]uint64{binary.BigEndian.Uint64(h[8:]), binary.BigEndian.Uint64(h[:8])}
	top := x[1] >> 63
	x = [2]uint64{x[0] << 1, x[1]<<1 | x[0]>>63}
	if top != 0 {
		x[0] ^= 1
		x[1] ^= 0xc2 << 56
	}
	pow := new([64][16]byte)
	p := x
	for k := 1; k <= len(pow); k++ {
		binary.LittleEndian.PutUint64(pow[len(pow)-k][:], p[0])
		binary.LittleEndian.PutUint64(pow[len(pow)-k][8:], p[1])
		p = gfmul(p, x)
	}
	return pow
}

// gfmul is the kernel's multiply, one block at a time: the 256-bit
// carry-less product of a and b, reduced by two folds of its low half
// through the polynomial constant.
func gfmul(a, b [2]uint64) [2]uint64 {
	l1, l0 := clmul(a[0], b[0])
	h1, h0 := clmul(a[1], b[1])
	m1, m0 := clmul(a[0], b[1])
	n1, n0 := clmul(a[1], b[0])
	lo := [2]uint64{l0, l1 ^ m0 ^ n0}
	hi := [2]uint64{h0 ^ m1 ^ n1, h1}
	for range 2 {
		t1, t0 := clmul(lo[0], 0xc2<<56)
		lo = [2]uint64{lo[1] ^ t0, lo[0] ^ t1}
	}
	return [2]uint64{lo[0] ^ hi[0], lo[1] ^ hi[1]}
}

// clmul is the carry-less product of a and b, high word first.
func clmul(a, b uint64) (hi, lo uint64) {
	for i := range 64 {
		if b>>i&1 != 0 {
			lo ^= a << i
			if i > 0 {
				hi ^= a >> (64 - i)
			}
		}
	}
	return hi, lo
}
