package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks, so a percentile that falls
// between two modes of a mixed workload moves smoothly instead of jumping.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it as resolved.
const minBeyond = 10

// resolved reports whether n samples leave at least minBeyond of them beyond
// the q-quantile — the rule that decides which tail percentile a run of n
// operations can state at all.
func resolved(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100 * (1 - 0.9) is 9.999999999999998
}

// highestResolved is the highest of p50/p90/p99/p99.9 that n samples resolve,
// or 0 when not even the median has ten samples beyond it.
func highestResolved(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if resolved(n, q) {
			best = q
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), because that is the
// spread the acceptance driver computes. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}
