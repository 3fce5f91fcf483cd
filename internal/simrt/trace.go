package simrt

// Optional event tracing: RunTraced collects a per-rank activity timeline
// (compute, communication waits, copies, barriers) from the virtual clock,
// which cmd/srumma-trace renders as a pipeline view. Tracing is off in
// normal runs so the harness pays nothing for it.
//
// The Tracer is a thin adapter over the shared observability spine
// (internal/obs): events land in an obs.Recorder with one lane per rank,
// and rendering/export delegate to obs so both engines produce identical
// trace artifacts.

import (
	"io"

	"srumma/internal/machine"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// Event is one traced activity interval on one rank, in virtual seconds.
type Event = obs.Event

// Tracer accumulates events from a traced run.
type Tracer struct {
	rec *obs.Recorder
}

// ensure sizes the underlying recorder for nprocs ranks (unbounded lanes —
// a traced run keeps everything). Called by run before the job starts.
func (tr *Tracer) ensure(nprocs int) {
	if tr == nil || tr.rec != nil {
		return
	}
	tr.rec = obs.NewRecorder(nprocs, 0)
}

func (tr *Tracer) add(rank int, kind obs.Kind, start, end float64) {
	if tr == nil {
		return
	}
	tr.rec.Record(rank, kind, start, end)
}

// Events returns all recorded events, rank-major then start-ordered.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	return tr.rec.Events()
}

// ByRank returns the events of one rank in start order.
func (tr *Tracer) ByRank(rank int) []Event {
	if tr == nil {
		return nil
	}
	return tr.rec.ByLane(rank)
}

// Summary aggregates per-kind busy time over all ranks.
func (tr *Tracer) Summary() map[string]float64 {
	return obs.Summary(tr.Events())
}

// Timeline renders rank timelines as fixed-width activity bars: one row
// per rank, `width` character cells spanning [0, horizon] seconds, with
// g=gemm, w=wait, c=copy, p=pack, b=barrier, s=steal, '.'=idle. Later
// events overwrite earlier ones within a cell.
func (tr *Tracer) Timeline(nprocs, width int, horizon float64) string {
	return obs.Timeline(tr.Events(), nprocs, width, horizon)
}

// WriteChromeTrace writes the tracer's events as a Trace Event Format JSON
// array (chrome://tracing, https://ui.perfetto.dev). Virtual seconds map to
// trace microseconds.
func (tr *Tracer) WriteChromeTrace(w io.Writer, nprocs int) error {
	return obs.WriteChromeTrace(w, tr.Events(), nprocs, "srumma virtual-time run")
}

// RunTraced is Run with an event collector attached.
func RunTraced(prof machine.Profile, nprocs int, tr *Tracer, body func(rt.Ctx)) (*Result, error) {
	return run(prof, nprocs, tr, body)
}
