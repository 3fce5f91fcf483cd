//go:build !amd64

package server

import "unsafe"

// Other platforms admit with allFinite and the standard library's GCM.
var vectorScan = false

func ghashAVX512(acc *[16]byte, pow *[64][16]byte, p unsafe.Pointer, n int) bool {
	panic("server: no vector admission kernel on this platform")
}

func finiteAVX512(p unsafe.Pointer, n int) bool {
	panic("server: no vector admission kernel on this platform")
}
