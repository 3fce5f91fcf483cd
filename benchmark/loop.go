package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sample is what one operation leaves behind: what the caller saw, and the
// numbers the program reported about it.
type sample struct {
	latency time.Duration
	flops   float64
	failed  bool
	relErr  float64

	// Library path: srumma.Report.Seconds of the call.
	engineSec float64
	// Serving path: X-Srumma-* response headers.
	route           string
	cached          bool
	queueMs, execMs float64
}

// budget bounds a closed loop: a fixed operation count when ops > 0 (counts
// repeat exactly), a duration otherwise. Either way a client stops only at the
// end of a round.
type budget struct {
	ops int
	d   time.Duration
	// minOps keeps a short loop from ending before it has done this many
	// operations in total.
	minOps int
	// setupReps fixes how often the system is set up for the setup_s median;
	// 0 leaves it to the time-based default.
	setupReps int
}

func (b budget) scale(f float64) budget {
	if b.ops > 0 {
		return budget{ops: max(1, int(float64(b.ops)*f))}
	}
	return budget{d: time.Duration(float64(b.d) * f)}
}

// pauseEvery is how often a closed loop stops to read the box's speed: at the
// first round boundary after this long, and after at least pauseMinRounds
// rounds so that a slow workload's pipeline of overlapping requests is not
// drained more often than every few operations.
const (
	pauseEvery     = 100 * time.Millisecond
	pauseMinRounds = 4
)

// loopTimes is the time a closed loop spent working, pauses left out.
type loopTimes struct {
	active []time.Duration // per client: start of each segment to the end of its last round in it
	cpuS   float64         // process + children CPU inside the segments
}

// closedLoop runs `clients` callers side by side; each issues op(client, i)
// for i = 0, 1, 2, ... the moment the previous one returned, in whole rounds of
// roundLen, until the budget is spent. Every pauseEvery all callers meet at a
// round boundary and, with the system under test idle, box takes one reading
// of the machine's speed; the pauses count neither as wall nor as CPU time.
func closedLoop(clients, roundLen int, b budget, box *boxClock, op func(client, i int) sample) ([][]sample, loopTimes) {
	perClient := make([][]sample, clients)
	perRound := clients * roundLen
	rounds, minRounds := (b.ops+perRound-1)/perRound, max(1, (b.minOps+perRound-1)/perRound)
	lt := loopTimes{active: make([]time.Duration, clients)}

	// Shared by the callers, written only by the last one to arrive at a
	// pause while the others wait.
	var (
		mu        sync.Mutex
		resume    = sync.NewCond(&mu)
		arrived   int
		segment   int // pauses taken so far
		stop      bool
		cpuMark   float64
		segStart  time.Time
		loopStart = time.Now()
	)
	box.read()
	cpuMark, _ = cpuSeconds()
	segStart = time.Now()
	// pause ends a caller's segment; it returns once every caller has
	// arrived and the box has been read, and reports whether the loop is over.
	pause := func(roundsDone int) bool {
		mu.Lock()
		defer mu.Unlock()
		if arrived++; arrived < clients {
			for mine := segment; mine == segment; {
				resume.Wait()
			}
			return stop
		}
		cpuNow, _ := cpuSeconds()
		lt.cpuS += cpuNow - cpuMark
		stop = roundsDone >= minRounds && (b.ops > 0 || time.Since(loopStart) >= b.d)
		box.read()
		arrived, segment = 0, segment+1
		cpuMark, _ = cpuSeconds()
		segStart = time.Now()
		resume.Broadcast()
		return stop
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; {
				mu.Lock()
				began := segStart
				mu.Unlock()
				for inSegment := 0; ; {
					for p := range roundLen {
						perClient[c] = append(perClient[c], op(c, r*roundLen+p))
					}
					r, inSegment = r+1, inSegment+1
					if b.ops > 0 && r >= max(rounds, minRounds) ||
						b.ops == 0 && inSegment >= pauseMinRounds && time.Since(began) >= pauseEvery {
						break
					}
				}
				lt.active[c] += time.Since(began)
				if pause(r) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return perClient, lt
}

// window is the summary of one timed closed loop, every number as measured.
type window struct {
	attempted, failed int
	wallS             float64 // the longest any client worked
	opsPerS, gflops   float64 // summed over clients: operations / time that client worked
	p50, p90, p99     float64 // caller-observed latency, ms, succeeded operations
	maxRelErr         float64
	cpuMsPerOp        float64
	// speedShare is the share of its undisturbed speed the box delivered
	// while the loop ran (boxClock.share).
	speedShare float64
}

// valuesOf returns f over the succeeded samples that keep accepts (nil keeps
// all), ascending.
func valuesOf(samples []sample, keep func(*sample) bool, f func(*sample) float64) []float64 {
	var v []float64
	for i := range samples {
		if s := &samples[i]; !s.failed && (keep == nil || keep(s)) {
			v = append(v, f(s))
		}
	}
	sort.Float64s(v)
	return v
}

func latencyMs(s *sample) float64 { return s.latency.Seconds() * 1e3 }

func medianOf(samples []sample, keep func(*sample) bool, f func(*sample) float64) float64 {
	return percentile(valuesOf(samples, keep, f), 0.5)
}

func summarise(perClient [][]sample, lt loopTimes) ([]sample, window) {
	var all []sample
	var w window
	for c, samples := range perClient {
		all = append(all, samples...)
		var ok, flops float64
		for i := range samples {
			s := &samples[i]
			if s.failed {
				w.failed++
				continue
			}
			ok++
			flops += s.flops
			w.maxRelErr = math.Max(w.maxRelErr, s.relErr)
		}
		worked := lt.active[c].Seconds()
		w.wallS = max(w.wallS, worked)
		w.opsPerS += ok / worked
		w.gflops += flops / worked / 1e9
	}
	w.attempted = len(all)
	lat := valuesOf(all, nil, latencyMs)
	w.p50, w.p90, w.p99 = percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.99)
	w.cpuMsPerOp = lt.cpuS * 1e3 / float64(w.attempted)
	return all, w
}

// timed runs one closed loop and summarises it.
func timed(clients, roundLen int, b budget, box *boxClock, op func(client, i int) sample) ([]sample, window) {
	first := box.readings()
	perClient, lt := closedLoop(clients, roundLen, b, box, op)
	samples, w := summarise(perClient, lt)
	w.speedShare = box.share(first)
	return samples, w
}
