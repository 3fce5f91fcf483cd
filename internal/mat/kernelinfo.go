package mat

// Runtime kernel capability report, for operator tooling (srumma-info) and
// the serving layer's info endpoint: which micro-kernel the packed dgemm
// hierarchy dispatches to on this machine.

// HasVectorKernel reports whether a vector micro-kernel (AVX-512 8x16 or
// AVX2+FMA 4x8) passed its CPUID/OS gate and is live. False means the
// portable scalar 4x4 kernel.
func HasVectorKernel() bool { return active.isa != isaScalar }

// KernelName identifies the micro-kernel every tile is dispatched to:
// "avx512 8x16", "avx2+fma 4x8" or "scalar 4x4".
func KernelName() string { return active.name }
