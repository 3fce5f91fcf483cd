package bench

import (
	"strings"

	"srumma/internal/mat"
)

// fmaLoop256 and fmaLoop512 (peak_amd64.s) retire iters*12 independent
// vector FMAs on registers only.
func fmaLoop256(iters int)
func fmaLoop512(iters int)

// fmaProbes lists the probe loops this machine can run, widest last — the
// last is the width the dispatched micro-kernel uses. mat's own CPUID/OS
// gates decide, through the kernel it reports.
func fmaProbes() []fmaProbe {
	var ps []fmaProbe
	if mat.HasVectorKernel() {
		ps = append(ps, fmaProbe{"fma256", fmaLoop256, 12 * 4 * 2})
	}
	if strings.HasPrefix(mat.KernelName(), "avx512") {
		ps = append(ps, fmaProbe{"fma512", fmaLoop512, 12 * 8 * 2})
	}
	return ps
}
