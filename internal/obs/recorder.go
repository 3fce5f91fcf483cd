package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder collects events into per-lane buffers. A lane is usually an SPMD
// rank; serving layers append extra lanes for request and scheduler spans.
// Lanes are independently locked, so the engine's one-goroutine-per-rank
// writers never contend.
//
// A lane with capacity > 0 is a ring: the newest events win and the
// overwrite count is reported by Dropped. Capacity <= 0 grows without bound
// (the right shape for one traced run; rings are for always-on serving).
//
// A nil *Recorder is the disabled state: Record/RecordWall are no-ops
// costing one pointer compare and zero allocations.
type Recorder struct {
	epoch     time.Time
	lanes     []lane
	misplaced atomic.Uint64 // records aimed at a lane that does not exist
}

type lane struct {
	mu      sync.Mutex
	buf     []Event
	cap     int
	next    int  // ring write cursor (cap > 0)
	full    bool // ring has wrapped
	dropped uint64
}

// NewRecorder creates a recorder with `lanes` lanes of `perLaneCap` ring
// capacity each (<= 0 for unbounded). The epoch — the zero point for
// RecordWall and Now — is the creation instant.
func NewRecorder(lanes, perLaneCap int) *Recorder {
	if lanes < 1 {
		lanes = 1
	}
	r := &Recorder{epoch: time.Now(), lanes: make([]lane, lanes)}
	for i := range r.lanes {
		r.lanes[i].cap = perLaneCap
		if perLaneCap > 0 {
			r.lanes[i].buf = make([]Event, perLaneCap)
		}
	}
	return r
}

// Enabled reports whether the recorder actually records (nil receivers do
// not).
func (r *Recorder) Enabled() bool { return r != nil }

// Lanes returns the lane count (0 for a nil recorder).
func (r *Recorder) Lanes() int {
	if r == nil {
		return 0
	}
	return len(r.lanes)
}

// Epoch returns the recorder's wall-clock zero point.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Now returns wall seconds since the epoch.
func (r *Recorder) Now() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Seconds()
}

// Record stores one event with timestamps already in engine seconds.
// Degenerate (end <= start) and misplaced (unknown lane) events are
// dropped; nil recorders drop everything for free.
func (r *Recorder) Record(laneIdx int, k Kind, start, end float64) {
	if r == nil || end <= start {
		return
	}
	if laneIdx < 0 || laneIdx >= len(r.lanes) {
		r.misplaced.Add(1)
		return
	}
	l := &r.lanes[laneIdx]
	l.mu.Lock()
	if l.cap > 0 {
		if l.full {
			l.dropped++
		}
		l.buf[l.next] = Event{Rank: laneIdx, Kind: k, Start: start, End: end}
		l.next++
		if l.next == l.cap {
			l.next = 0
			l.full = true
		}
	} else {
		l.buf = append(l.buf, Event{Rank: laneIdx, Kind: k, Start: start, End: end})
	}
	l.mu.Unlock()
}

// RecordWall stores one wall-clock span, converting to seconds since the
// epoch. This is the real engine's entry point: t0/t1 come straight from
// time.Now at the span's boundaries.
func (r *Recorder) RecordWall(laneIdx int, k Kind, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.Record(laneIdx, k, t0.Sub(r.epoch).Seconds(), t1.Sub(r.epoch).Seconds())
}

// SpanStart and SpanEnd bracket one wall-clock span that ends when SpanEnd
// is called. On a nil recorder SpanStart returns the zero time without
// reading the clock and SpanEnd drops it, so the disabled tracing path of
// an engine or executor is two pointer compares.
func (r *Recorder) SpanStart() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *Recorder) SpanEnd(laneIdx int, k Kind, t0 time.Time) {
	if r == nil || t0.IsZero() {
		return
	}
	r.RecordWall(laneIdx, k, t0, time.Now())
}

// ByLane returns lane's events in start order. Ring lanes return oldest
// surviving first.
func (r *Recorder) ByLane(laneIdx int) []Event {
	if r == nil || laneIdx < 0 || laneIdx >= len(r.lanes) {
		return nil
	}
	l := &r.lanes[laneIdx]
	l.mu.Lock()
	var out []Event
	if l.cap > 0 {
		if l.full {
			out = make([]Event, 0, l.cap)
			out = append(out, l.buf[l.next:]...)
			out = append(out, l.buf[:l.next]...)
		} else {
			out = append([]Event(nil), l.buf[:l.next]...)
		}
	} else {
		out = append([]Event(nil), l.buf...)
	}
	l.mu.Unlock()
	// Writers within a lane are single-goroutine in the engines, but
	// serving lanes interleave goroutines: normalize to start order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Events returns every lane's events, lane-major then start-ordered.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.lanes {
		out = append(out, r.ByLane(i)...)
	}
	return out
}

// Dropped returns how many events were lost to ring overwrites or aimed at
// nonexistent lanes.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	n := r.misplaced.Load()
	for i := range r.lanes {
		l := &r.lanes[i]
		l.mu.Lock()
		n += l.dropped
		l.mu.Unlock()
	}
	return n
}

// Reset discards all recorded events (capacities are kept).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.lanes {
		l := &r.lanes[i]
		l.mu.Lock()
		l.next, l.full, l.dropped = 0, false, 0
		if l.cap <= 0 {
			l.buf = nil
		}
		l.mu.Unlock()
	}
}
