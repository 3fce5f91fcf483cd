package mat

// The asm kernels of microkernel_amd64.s. kc must be >= 1 and the pointers
// must address packed panels of at least kc*mr (ap) and kc*nr (bp) elements
// and a full mr x nr C tile; with store they write the tile without
// reading it. noescape is what keeps the edge scratch tile on the caller's
// stack.

//go:noescape
func fmaKernel4x8(kc int, ap, bp, c *float64, ldc int, store bool)

//go:noescape
func zmmKernel8x16(kc int, ap, bp, c *float64, ldc int, store bool)

// packRowsAVX2 and packTransAVX2 are the vector kernels' panel packing:
// d[l*w+i] = scale*s[l*ld+i] over all w columns, and d[l*w+i] =
// scale*s[i*ld+l] over four columns, for l < kc.

//go:noescape
func packRowsAVX2(d *float64, w int, s *float64, ld, kc int, scale float64)

//go:noescape
func packTransAVX2(d *float64, w int, s *float64, ld, kc int, scale float64)

// cpuidHasAVX2FMA and cpuidHasAVX512F report whether the CPU has the
// kernel's instructions and the OS saves its register state.
func cpuidHasAVX2FMA() bool
func cpuidHasAVX512F() bool

func supportedKernels() []kernel {
	ks := []kernel{scalarKernel}
	if cpuidHasAVX2FMA() {
		ks = append(ks, kernel{name: "avx2+fma 4x8", mr: 4, nr: 8, isa: isaAVX2})
		if cpuidHasAVX512F() {
			ks = append(ks, kernel{name: "avx512 8x16", mr: 8, nr: 16, isa: isaAVX512})
		}
	}
	return ks
}

// run adds into (or, with store, stores) one full mr x nr tile at c with
// k's code.
func (k *kernel) run(kc int, ap, bp, c []float64, ldc int, store bool) {
	_ = c[(k.mr-1)*ldc+k.nr-1] // the asm does not bounds-check
	switch k.isa {
	case isaAVX512:
		zmmKernel8x16(kc, &ap[0], &bp[0], &c[0], ldc, store)
	case isaAVX2:
		fmaKernel4x8(kc, &ap[0], &bp[0], &c[0], ldc, store)
	default:
		scalarKernel4x8(kc, ap, bp, c, ldc, store)
	}
}

// packPanel packs one full micro-panel, d[l*w+i] = scale * s[l*sl+i*sj] for
// l < kc, i < w, where one of sl, sj is 1: with vector code for the vector
// kernels, in Go for the scalar one.
func (k *kernel) packPanel(d []float64, w int, s []float64, sl, sj, kc int, scale float64) {
	if k.isa == isaScalar {
		packPanelGo(d, w, s, sl, sj, kc, scale)
		return
	}
	_, _ = d[kc*w-1], s[(kc-1)*sl+(w-1)*sj] // the asm does not bounds-check
	if sj == 1 {
		packRowsAVX2(&d[0], w, &s[0], sl, kc, scale)
		return
	}
	for g := 0; g < w; g += 4 {
		packTransAVX2(&d[g], w, &s[g*sj], sj, kc, scale)
	}
}
