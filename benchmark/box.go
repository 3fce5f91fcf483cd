package main

import (
	"sync"
	"time"
)

// The box the benchmark runs on is shared: the same commit measures 50 ms in
// one minute and 70 ms in the next, every latency quantile and the CPU time
// per operation moving together, while a loop that touches nothing of this
// repo slows by the same episodes. No statistic of one run removes that, so
// the benchmark measures it: a fixed piece of its own work, timed on every
// core whenever the system under test is idle, says what share of its
// undisturbed speed the box delivered during a run, and the end-to-end times
// are stated at undisturbed speed (README, "Noise design").

const (
	refDim  = 64 // the reference work: refReps scalar products of refDim³, L2-resident
	refReps = 16
)

// boxClock collects readings of the machine's speed: how long the reference
// work took on each core.
type boxClock struct {
	bufs   [][3][]float64 // one set of operands per core
	bursts []float64      // seconds per reading, in the order taken
}

func newBoxClock() *boxClock {
	bc := &boxClock{bufs: make([][3][]float64, gomaxprocs())}
	for p := range bc.bufs {
		for m := range bc.bufs[p] {
			bc.bufs[p][m] = make([]float64, refDim*refDim)
			for i := range bc.bufs[p][m] {
				bc.bufs[p][m][i] = float64((i+m)%7) * 0x1p-8
			}
		}
	}
	return bc
}

func refWork(a, b, c []float64) {
	const n = refDim
	for range refReps {
		for i := range n {
			ci := c[i*n : i*n+n]
			for k := range n {
				aik, bk := a[i*n+k], b[k*n:k*n+n]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
	}
}

// read times the reference work once on every core at the same moment. Call
// it only while the system under test is idle, so that the reading depends on
// the box and not on the program.
func (bc *boxClock) read() {
	took := make([]float64, len(bc.bufs))
	var wg sync.WaitGroup
	for p := range bc.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			refWork(bc.bufs[p][0], bc.bufs[p][1], bc.bufs[p][2])
			took[p] = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	bc.bursts = append(bc.bursts, took...)
}

func (bc *boxClock) readings() int { return len(bc.bursts) }

// share is the speed the box delivered since reading number `first`, as a
// share of its undisturbed speed: the time the reference work takes when
// nothing disturbs it (the 5th percentile of every reading so far — other
// tenants only ever slow it) over the mean time it took since `first`. Both
// are linear in the share of time the box was disturbed, which is why the mean
// and not the median.
func (bc *boxClock) share(first int) float64 { return bc.shareOf(first, len(bc.bursts)) }

// shareOf is share over the readings [first, end).
func (bc *boxClock) shareOf(first, end int) float64 {
	sum := 0.0
	for _, s := range bc.bursts[first:end] {
		sum += s
	}
	return percentile(sortedCopy(bc.bursts), 0.05) / (sum / float64(end-first))
}
