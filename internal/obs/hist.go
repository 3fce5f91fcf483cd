package obs

// Streaming latency instruments, moved here from the serving layer so any
// subsystem can price its tail behaviour from the same implementation.
// Everything is O(1) per observation and bounded in memory, so the metrics
// path cannot become the bottleneck it is supposed to observe.

import (
	"math"
	"sync"
	"time"
)

// Histogram buckets are geometric: bucket i covers latencies in
// [histBase*histGrowth^(i-1), histBase*histGrowth^i), with bucket 0
// catching everything below histBase. 96 buckets at 12% growth span 50us
// to ~2.7h, which is wider than any admissible request.
const (
	histBuckets = 96
	histBase    = 50e-6
	histGrowth  = 1.12
)

// Histogram is a streaming log-bucketed latency histogram. All methods are
// mutex-guarded; contention is negligible at request rates.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	total  uint64
	sum    float64
	max    float64
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := 0
	if seconds >= histBase {
		i = 1 + int(math.Log(seconds/histBase)/math.Log(histGrowth))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += seconds
	if seconds > h.max {
		h.max = seconds
	}
	h.mu.Unlock()
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket containing it — a deliberate over-estimate, never flattering —
// clamped to the largest observation, which no quantile exceeds.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if ub := histBase * math.Pow(histGrowth, float64(i)); ub < h.max {
				return ub
			}
			return h.max
		}
	}
	return h.max
}

// Mean returns the average observed latency in seconds.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observed latency in seconds.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// rateWindowSecs is the trailing window of the completion-rate estimator.
const rateWindowSecs = 8

// RateWindow counts events in a ring of 1-second buckets, giving a
// recent-rate estimate that is O(1) per event and immune to uptime
// averaging (a burst an hour ago must not price Retry-After now).
type RateWindow struct {
	mu     sync.Mutex
	counts [rateWindowSecs]uint64
	epochs [rateWindowSecs]int64 // unix second each bucket last belonged to
}

// Record counts one event at now.
func (rw *RateWindow) Record(now time.Time) {
	sec := now.Unix()
	i := int(sec % rateWindowSecs)
	rw.mu.Lock()
	if rw.epochs[i] != sec {
		rw.epochs[i] = sec
		rw.counts[i] = 0
	}
	rw.counts[i]++
	rw.mu.Unlock()
}

// RPS returns events per second over the window, counting only buckets
// young enough to still be inside it.
func (rw *RateWindow) RPS(now time.Time) float64 {
	sec := now.Unix()
	var n uint64
	rw.mu.Lock()
	for i := 0; i < rateWindowSecs; i++ {
		if sec-rw.epochs[i] < rateWindowSecs {
			n += rw.counts[i]
		}
	}
	rw.mu.Unlock()
	return float64(n) / rateWindowSecs
}
