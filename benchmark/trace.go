package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Outside-in tracing: spans are recorded by the benchmark around its calls into
// each layer, kept in memory, and written out as a Chrome trace when the
// workload ends. Durations the program only reports as numbers (queue_ms,
// elapsed_ms, rt.Stats times) ride as counters on the root span of the
// operation, never as drawn spans.

// span is one interval. Every span of one operation shares Op; Parent is the
// ID of the span that caused it (0 for the root span "op").
type span struct {
	ID, Parent, Op int
	Name           string
	Lane           string // timeline row: "client0", "rank3", ...
	Start, End     time.Time
	Args           map[string]float64
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer collects spans from any goroutine.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int
}

// add records a span and returns its ID. Callers that need children to name
// their parent reserve the parent's ID first.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// segment is a stretch of time carrying weight w: the share of each instant in
// it that belongs to the subtree being attributed.
type segment struct {
	t0, t1 time.Time
	w      float64
}

// selfTimes attributes every instant of each root span to exactly one span
// name, so the per-name totals of one operation add up to the root's duration.
// A span's self time is its duration minus the part its children cover; where
// k children run at once (rank spans under one team run) the instant is split
// equally among them.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]*span{}
	var roots []*span
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]float64{}
	var walk func(s *span, segs []segment)
	walk = func(s *span, segs []segment) {
		children := kids[s.ID]
		// Cut points: every boundary of the incoming segments and of the
		// children, inside the span.
		var cuts []time.Time
		for _, g := range segs {
			cuts = append(cuts, g.t0, g.t1)
		}
		for _, c := range children {
			cuts = append(cuts, c.Start, c.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
		handed := map[*span][]segment{}
		for i := 0; i+1 < len(cuts); i++ {
			t0, t1 := cuts[i], cuts[i+1]
			if !t1.After(t0) {
				continue
			}
			w := 0.0
			for _, g := range segs {
				if !t0.Before(g.t0) && !t1.After(g.t1) {
					w = g.w
					break
				}
			}
			if w == 0 {
				continue
			}
			var active []*span
			for _, c := range children {
				if !t0.Before(c.Start) && !t1.After(c.End) {
					active = append(active, c)
				}
			}
			if len(active) == 0 {
				self[s.Name] += w * t1.Sub(t0).Seconds()
				continue
			}
			for _, c := range active {
				handed[c] = append(handed[c], segment{t0, t1, w / float64(len(active))})
			}
		}
		for _, c := range children {
			walk(c, handed[c])
		}
	}
	for _, r := range roots {
		walk(r, []segment{{r.Start, r.End, 1}})
	}
	out := map[string]time.Duration{}
	for name, sec := range self {
		out[name] = time.Duration(sec * float64(time.Second))
	}
	return out
}

// checkNesting verifies that every child span lies inside its parent, and
// returns the summed duration of the root spans.
func checkNesting(spans []span) (rootTotal time.Duration, err error) {
	byID := map[int]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			rootTotal += s.dur()
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			return 0, fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start.Before(p.Start) || s.End.After(p.End) {
			return 0, fmt.Errorf("span %d (%s) does not fit inside its parent %s", s.ID, s.Name, p.Name)
		}
	}
	return rootTotal, nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a JSON array of trace events (the form
// chrome://tracing, Perfetto and the repo's own obs.ValidateChromeTrace accept):
// one timeline row per lane, named by a thread_name metadata event.
func writeChrome(path, process string, spans []span) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace %s: no spans recorded", path)
	}
	epoch := spans[0].Start
	for i := range spans {
		if spans[i].Start.Before(epoch) {
			epoch = spans[i].Start
		}
	}
	lanes := map[string]int{}
	var laneNames []string
	for i := range spans {
		if _, ok := lanes[spans[i].Lane]; !ok {
			lanes[spans[i].Lane] = 0
			laneNames = append(laneNames, spans[i].Lane)
		}
	}
	sort.Strings(laneNames)
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for i, name := range laneNames {
		lanes[name] = i
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]any{"name": name}})
	}
	for i := range spans {
		s := &spans[i]
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lanes[s.Lane],
			Ts:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
