package main

import (
	"math"
	"sync"

	"srumma"
)

// The benchmark owns its reference: bit-identity to the repo's own serial
// kernel proves consistency, not correctness, so every result is also checked
// against dot products computed here, in twice the working precision.

// checkedEntries is how many seeded (i, j) entries of every result are
// compared with the compensated reference.
const checkedEntries = 16

// dot2 returns the compensated dot product Σ x[k]·y[k] (Ogita, Rump & Oishi's
// Dot2: error-free products via FMA, error-free sums via TwoSum) and Σ|x||y|.
// x and y are strided views: element k lives at x[k*xs], y[k*ys].
func dot2(n int, x []float64, xs int, y []float64, ys int) (dot, mass float64) {
	var s, comp float64
	for k := range n {
		a, b := x[k*xs], y[k*ys]
		p := a * b
		perr := math.FMA(a, b, -p)
		t := s + p
		z := t - s
		serr := (s - (t - z)) + (p - z)
		s = t
		comp += perr + serr
		mass += math.Abs(p)
	}
	return s + comp, mass
}

// splitmix is the benchmark's own seeded stream (entry picks, never operands:
// those come from srumma.RandomMatrix).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// relErr checks checkedEntries entries of c = op(a)·op(b), picked by key, and
// returns the largest |c - ref| / (|a|ᵀ|b|). A non-finite entry yields +Inf.
func relErr(cs srumma.Case, a, b *srumma.Matrix, c []float64, m, n, k int, key uint64) float64 {
	worst := 0.0
	for e := range checkedEntries {
		h := splitmix(key + uint64(e))
		i, j := int(h%uint64(m)), int((h>>32)%uint64(n))
		// Row i of op(A): contiguous when A is stored m x k, a column of the
		// stored k x m matrix otherwise; likewise column j of op(B).
		x, xs := a.Data[i*a.Stride:], 1
		if cs.TransA() {
			x, xs = a.Data[i:], a.Stride
		}
		y, ys := b.Data[j:], b.Stride
		if cs.TransB() {
			y, ys = b.Data[j*b.Stride:], 1
		}
		ref, mass := dot2(k, x, xs, y, ys)
		got := c[i*n+j]
		if math.IsNaN(got) || math.IsInf(got, 0) {
			return math.Inf(1)
		}
		if mass > 0 {
			worst = max(worst, math.Abs(got-ref)/mass)
		} else if got != 0 {
			return math.Inf(1)
		}
	}
	return worst
}

// errBound is the accepted relative error of a length-k dot product in
// float64: eight times the classical k·u bound, u = 2⁻⁵³.
func errBound(k int) float64 { return 8 * float64(k) * 0x1p-53 }

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checker verifies every result of a run. Verification happens after the
// operation's latency was taken and costs the same on every commit.
type checker struct {
	seed uint64
	// ref computes the bit-identity reference of an operation: the plain
	// serial kernel on the small route, planReplay on a distributed one.
	ref func(*item) (*srumma.Matrix, error)

	mu           sync.Mutex
	bitChecked   map[gemm]bool
	bitIdentical bool
}

func newChecker(seed uint64, ref func(*item) (*srumma.Matrix, error)) *checker {
	return &checker{seed: seed, ref: ref, bitChecked: map[gemm]bool{}, bitIdentical: true}
}

// check marks s failed when c is not op(a)·op(b): checkedEntries entries must
// agree with the compensated reference within errBound. The first result of
// each distinct shape is also compared bit for bit with the serial-kernel reference.
func (ck *checker) check(s *sample, it *item, c []float64, client, i int) {
	g := it.g
	if len(c) != g.m*g.n {
		s.failed = true
		return
	}
	s.relErr = relErr(g.cs, it.a, it.b, c, g.m, g.n, g.k, splitmix(ck.seed)+uint64(client)<<40+uint64(i)<<8)
	if !(s.relErr <= errBound(g.k)) {
		s.failed = true
	}
	ck.mu.Lock()
	first := !ck.bitChecked[g]
	ck.bitChecked[g] = true
	ck.mu.Unlock()
	if first {
		ref, err := ck.ref(it)
		if err != nil || !bitEqual(ref.Data, c) {
			s.failed = true
			ck.mu.Lock()
			ck.bitIdentical = false
			ck.mu.Unlock()
		}
	}
}

func (ck *checker) identical() bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.bitIdentical
}
