package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (goes up and down).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatCounter is a monotonic float64 accumulator (flops served, seconds
// busy) implemented with a CAS loop over the bit pattern.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates d.
func (f *FloatCounter) Add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the accumulated value.
func (f *FloatCounter) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Registry is a named metric namespace: get-or-create accessors hand out
// stable pointers callers cache on their hot paths, and Snapshot walks
// everything for export. One registry typically backs one subsystem
// (server, scheduler); names are dotted paths like "sched.submitted".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	floats   map[string]*FloatCounter
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		floats:   make(map[string]*FloatCounter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Float returns the named float counter, creating it on first use.
func (r *Registry) Float(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.floats[name]
	if !ok {
		f = &FloatCounter{}
		r.floats[name] = f
	}
	return f
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Sample is one exported metric value.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot returns every metric as a name-sorted sample list. Histograms
// expand into .count/.mean_s/.p50_s/.p99_s/.max_s samples.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.floats)+5*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{name, float64(c.Load())})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{name, float64(g.Load())})
	}
	for name, f := range r.floats {
		out = append(out, Sample{name, f.Load()})
	}
	for name, h := range r.hists {
		out = append(out,
			Sample{name + ".count", float64(h.Count())},
			Sample{name + ".mean_s", h.Mean()},
			Sample{name + ".p50_s", h.Quantile(0.50)},
			Sample{name + ".p99_s", h.Quantile(0.99)},
			Sample{name + ".max_s", h.Max()},
		)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
