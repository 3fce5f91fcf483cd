//go:build !amd64

package mat

// Non-amd64 platforms have the scalar micro-kernel only.
func supportedKernels() []kernel { return []kernel{scalarKernel} }

func (k *kernel) run(kc int, ap, bp, c []float64, ldc int, store bool) {
	scalarKernel4x8(kc, ap, bp, c, ldc, store)
}

func (k *kernel) packPanel(d []float64, w int, s []float64, sl, sj, kc int, scale float64) {
	packPanelGo(d, w, s, sl, sj, kc, scale)
}
