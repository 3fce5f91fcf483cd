package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"srumma/internal/mat"
)

// oracleDigester has fixed keys, so a failure reproduces.
var oracleDigester = newDigester([]byte("0123456789abcdef"), []byte("fedcba9876543210"))

// needVectorScan skips a test of the vector kernel on a CPU without it (the
// portable path is then the only one, and the other tests cover it).
func needVectorScan(t testing.TB) {
	if oracleDigester.pow == nil {
		t.Skip("no AVX-512 VPCLMULQDQ on this CPU: the portable path is the only path")
	}
}

// TestVectorPathChosen: where the CPU has the kernels, the digesters were
// built for them — the process's, which the server uses, and the oracle
// tests' own — so the tests below run the vector path and do not skip.
func TestVectorPathChosen(t *testing.T) {
	if vectorScan && (processDigester.pow == nil || oracleDigester.pow == nil) {
		t.Fatal("the CPU has the vector kernels but a digester was built without them")
	}
}

// scanWindows admits data through the vector path cut at splits (ascending
// element offsets): the verdict over every window and the sealed digest.
func scanWindows(dg *digester, rows, cols int, data []float64, splits ...int) (bool, digest) {
	var g ghash
	ok, from := true, 0
	for _, to := range append(splits, len(data)) {
		ok = dg.fold(&g, data[from:to]) && ok
		from = to
	}
	return ok, dg.seal(&g, rows, cols)
}

// offsetFloats returns n elements starting off (0-7) elements past a
// 64-byte boundary: every 8-byte start a JSON operand can have.
func offsetFloats(n, off int) []float64 {
	b := make([]float64, n+16)
	a := int(-uintptrOf(b)%64) / 8
	return b[a+off : a+off+n]
}

// checkAgainstOracle holds one admission of data to allFinite and the
// standard library's GCM: the same verdict, the same digest bits.
func checkAgainstOracle(t *testing.T, rows, cols int, data []float64, splits ...int) {
	t.Helper()
	dg := oracleDigester
	ok, got := scanWindows(dg, rows, cols, data, splits...)
	if want := allFinite(data); ok != want {
		t.Fatalf("%dx%d split at %v: vector verdict %v, allFinite %v", rows, cols, splits, ok, want)
	}
	if want := dg.sumGCM(rows, cols, data); got != want {
		t.Fatalf("%dx%d split at %v: vector digest %x, GCM %x", rows, cols, splits, got, want)
	}
	if fin := finite(data); fin != ok {
		t.Fatalf("%dx%d: finite scan %v, fused verdict %v", rows, cols, fin, ok)
	}
}

// TestScanMatchesGCM: the fused pass and the portable one agree on the
// verdict and the digest bits at every element count 0…4096 (each at some
// 8-byte offset, whole and cut into windows of a count-dependent size), at
// 384² and 768² cut into admission windows at every offset, and for one
// ragged operand at every two-window split and every offset.
func TestScanMatchesGCM(t *testing.T) {
	needVectorScan(t)
	for n := 0; n <= 4096; n++ {
		data := offsetFloats(n, n%8)
		copy(data, mat.Random(1, n+1, uint64(n)).Data)
		checkAgainstOracle(t, 1, n, data)
		var splits []int
		for at, w := 0, 1+(7*n)%61; at+w < n; at += w {
			splits = append(splits, at+w)
		}
		checkAgainstOracle(t, n, 1, data, splits...)
	}
	for _, dim := range []int{384, 768} {
		src := mat.Random(dim, dim, uint64(dim)).Data
		var splits []int
		for at := admitWindow; at < len(src); at += admitWindow {
			splits = append(splits, at)
		}
		for off := 0; off < 8; off++ {
			data := offsetFloats(len(src), off)
			copy(data, src)
			checkAgainstOracle(t, dim, dim, data, splits...)
		}
	}
	const ragged = 1031 // odd, and past two 32-block steps
	src := mat.Random(1, ragged, 5).Data
	for off := 0; off < 8; off++ {
		data := offsetFloats(ragged, off)
		copy(data, src)
		for s := 0; s <= ragged; s++ {
			checkAgainstOracle(t, 1, ragged, data, s)
		}
	}
}

// TestScanRefusesPoisonInItsWindow: NaN and ±Inf at every position of the
// first, a middle and the last admission window of an operand are refused
// by the scan of that window, on the fused pass and on the finite scan
// alone; the largest finite values, in the same places, are admitted and
// digest as the standard library's GCM does.
func TestScanRefusesPoisonInItsWindow(t *testing.T) {
	needVectorScan(t)
	n := 2*admitWindow + admitWindow/2 + 3 // three windows, the last ragged and odd
	data := offsetFloats(n, 0)
	copy(data, mat.Random(1, n, 41).Data)
	windows := [][2]int{{0, admitWindow}, {admitWindow, 2 * admitWindow}, {2 * admitWindow, n}}
	poison := []uint64{
		0x7ff8000000000000, // quiet NaN
		0x7ff0000000000001, // signalling NaN
		0xfff8000000000000, // negative NaN
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x7fefffffffffffff, // largest finite: admitted
		0xffefffffffffffff, // most negative finite: admitted
	}
	dg := oracleDigester
	for _, w := range windows {
		win := data[w[0]:w[1]]
		for pos := range win {
			keep := win[pos]
			for _, p := range poison {
				win[pos] = math.Float64frombits(p)
				want := isFinite(win[pos])
				var g ghash
				if got := dg.fold(&g, win); got != want {
					t.Fatalf("%#x at %d: fused verdict %v, want %v", p, w[0]+pos, got, want)
				}
				if got := finite(win); got != want {
					t.Fatalf("%#x at %d: finite scan %v, want %v", p, w[0]+pos, got, want)
				}
			}
			win[pos] = keep
		}
	}
	for _, at := range []int{0, admitWindow - 1, admitWindow + 17, n - 1} {
		keep := data[at]
		data[at] = math.MaxFloat64
		checkAgainstOracle(t, 1, n, data, admitWindow, 2*admitWindow)
		data[at] = -math.MaxFloat64
		checkAgainstOracle(t, 1, n, data, admitWindow, 2*admitWindow)
		data[at] = keep
	}
}

// FuzzScanDigest: on arbitrary bit patterns, at any 8-byte offset, cut
// into two windows anywhere, the fused pass gives allFinite's verdict and
// the standard library's digest.
func FuzzScanDigest(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 40), uint8(1), uint16(3))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, 75), uint8(3), uint16(33))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}, 600), uint8(7), uint16(513))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, split uint16) {
		needVectorScan(t)
		data := offsetFloats(len(raw)/8, int(off%8))
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkAgainstOracle(t, len(data), 1, data, int(split)%(len(data)+1))
	})
}

// TestScanRandomSplits: random operands, about one in eight of them with
// one element whose bits are left free to be non-finite, cut into up to
// five windows at random places.
func TestScanRandomSplits(t *testing.T) {
	needVectorScan(t)
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(3000)
		data := offsetFloats(n, rng.Intn(8))
		for i := range data {
			w := rng.Uint64()
			if rng.Intn(8*n+1) != 0 {
				w &^= 1 << 62 // finite
			}
			data[i] = math.Float64frombits(w)
		}
		splits := make([]int, rng.Intn(5))
		for i := range splits {
			splits[i] = rng.Intn(n + 1)
		}
		sort.Ints(splits)
		checkAgainstOracle(t, 1, n, data, splits...)
	}
}
