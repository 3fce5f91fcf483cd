package server

import "unsafe"

// The asm kernels of scan_amd64.s. n is a byte count: a multiple of 16 for
// ghashAVX512, of 64 for finiteAVX512; p may have any 8-byte alignment.

//go:noescape
func ghashAVX512(acc *[16]byte, pow *[64][16]byte, p unsafe.Pointer, n int) bool

//go:noescape
func finiteAVX512(p unsafe.Pointer, n int) bool

// cpuidHasVPCLMUL512 reports whether the CPU has the kernels' instructions
// and the OS saves their register state.
func cpuidHasVPCLMUL512() bool

// vectorScan selects the admission pass: the AVX-512 kernels, or allFinite
// and the standard library's GCM. It must stay a variable initializer, not
// an init func: processDigester reads it while package variables are
// initialized, before any init func runs.
var vectorScan = cpuidHasVPCLMUL512()
