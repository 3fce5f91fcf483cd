//go:build !amd64

package bench

// No FMA probe off amd64: the sweep reports rates without a share of peak.
func fmaProbes() []fmaProbe { return nil }
