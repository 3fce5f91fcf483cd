// Package obs is the engine-agnostic observability spine: one event model,
// one counter model, one exporter, shared by every layer of the system.
//
// Before it existed the repo had four instrumentation surfaces — the sim
// engine's private tracer, the real engine's end-of-run rt.Stats, the
// serving layer's /metrics machinery and the scheduler's snapshot counters
// — which meant the paper's central claim (nonblocking RMA overlapping
// dgemm) could only be *seen* on the virtual-time engine. obs unifies them:
//
//   - Event/Kind: one span type with monotonic timestamps in engine seconds
//     (virtual for simrt, wall for armci), collected into per-rank ring
//     buffers by Recorder;
//   - Meters: the canonical per-process counter block (rt.Stats is an alias
//     of it), so engine accounting, /metrics and benchmark dumps share one
//     definition;
//   - Counter/Gauge/FloatCounter/Histogram/Registry: named atomic metrics
//     for the serving and scheduling layers;
//   - Chrome trace-event export, timeline rendering and the paper's overlap
//     ratio, computed from the same events on either engine.
//
// The disabled path is free: a nil *Recorder is a valid recorder whose
// Record methods are no-ops, pinned at zero allocations by tests.
package obs

// Kind classifies one traced activity interval.
type Kind uint8

// Activity kinds. The first six match the virtual-time tracer's historical
// names (their rendered output is pinned by a golden test); the rest are
// emitted by the real engine and the serving layers.
const (
	KindGemm    Kind = iota // local dgemm execution
	KindWait                // blocked in Wait/Recv on a pending transfer
	KindCopy                // same-domain memcpy (blocking shared-memory get)
	KindPack                // pack/unpack copies
	KindBarrier             // barrier synchronization
	KindSteal               // CPU stolen servicing non-zero-copy remote ops
	KindGet                 // one-sided get (real engine: the eager copy)
	KindPut                 // one-sided put/accumulate
	KindIssue               // executor issuing nonblocking fetches
	KindJob                 // one SPMD job on a team rank (wake to unwind)
	KindRequest             // one admitted serving-layer request
	KindQueue               // task queue-wait (admission to dispatch)
	KindBatch               // one scheduler dispatch on a worker
	KindRecover             // job recovery work: salvage, resume, ABFT redo
	KindStage               // hier outer level: staging burst + publish barrier
	numKinds
)

var kindNames = [numKinds]string{
	"gemm", "wait", "copy", "pack", "barrier", "steal",
	"get", "put", "issue", "job", "request", "queue", "batch", "recover", "stage",
}

// glyphs are the single-cell timeline letters. The first six are pinned by
// the golden sim output.
var glyphs = [numKinds]byte{'g', 'w', 'c', 'p', 'b', 's', 't', 'u', 'i', 'j', 'r', 'q', 'a', 'v', 'o'}

// String returns the kind's stable name (used in Chrome traces, summaries
// and BENCH json).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Glyph returns the kind's one-character timeline cell.
func (k Kind) Glyph() byte {
	if int(k) < len(glyphs) {
		return glyphs[k]
	}
	return '?'
}

// Event is one traced activity interval on one rank (or serving-layer
// lane), in engine seconds — virtual on the sim engine, wall seconds since
// the recorder's epoch on the real engine.
type Event struct {
	Rank       int
	Kind       Kind
	Start, End float64
}

// Duration returns the event length in seconds.
func (e Event) Duration() float64 { return e.End - e.Start }
