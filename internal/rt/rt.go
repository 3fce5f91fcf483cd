// Package rt defines the runtime abstraction every parallel algorithm in
// this repository is written against. An algorithm is an SPMD body running
// once per process against a Ctx, which exposes:
//
//   - ARMCI-style one-sided communication (collective Malloc, one strided
//     nonblocking get completed by Wait, locality queries, direct
//     shared-memory access) — what SRUMMA uses. A contiguous or blocking
//     get is a free function over it (Get, NbGet below), so a wrapper that
//     overrides NbGetSub and Wait — and GetWindow, where it forwards that
//     capability — has intercepted all one-sided data movement;
//   - MPI-style two-sided communication (Send/Recv, Isend/Irecv) — what the
//     SUMMA/pdgemm/Cannon baselines use;
//   - a compute interface (Gemm, Pack) so the engine decides whether work is
//     executed (real engine) or charged to a virtual clock (sim engine).
//
// Three engines implement Ctx: internal/armci runs real goroutine processes
// sharing one address space (the correctness engine), internal/ipcrt runs
// every rank as an OS process over mmap'd segments and socket RMA (unix or
// tcp), and internal/simrt runs simulated processes over internal/vtime +
// internal/simnet (the performance-model engine reproducing the paper's
// platforms). internal/faults and internal/hier wrap a Ctx (seeded fault
// injection; fetches served from a group-staged band) and are not engines.
package rt

import (
	"fmt"

	"srumma/internal/obs"
)

// Buffer is an opaque handle to a contiguous run of float64 elements. The
// real engine backs it with an actual slice; the sim engine tracks only its
// length.
type Buffer interface {
	// Len returns the buffer length in elements.
	Len() int
}

// Global is a collectively allocated distributed segment: one Buffer-like
// region per rank (ARMCI_Malloc semantics). Engines return their own
// implementations.
type Global interface {
	// LenAt returns the number of elements in rank's segment.
	LenAt(rank int) int
	// LD returns the segments' leading dimension: the row stride of the
	// matrix each segment is a window of (Adopter), or 0 when every segment
	// is its owner's block stored tight (ld = the block's column count).
	LD() int
}

// SegLD resolves the leading dimension of a cols-wide block inside its
// segment of g: g's own when its segments are windows of a wider matrix,
// the block's column count when they are stored tight (or g is nil, an
// operand planned for without having been placed).
func SegLD(g Global, cols int) int {
	if g != nil && g.LD() > 0 {
		return g.LD()
	}
	return cols
}

// Handle identifies an outstanding nonblocking operation.
type Handle interface {
	// Done reports whether the operation has completed. Waiting is done via
	// Ctx.Wait so engines can account blocked time.
	Done() bool
}

// Mat describes a (sub)matrix operand living inside a Buffer: a row-major
// Rows x Cols view starting Off elements into the buffer with leading
// dimension LD. Trans marks the operand as transposed for Gemm. Remote
// marks an operand accessed directly in another process's memory (only
// possible inside a shared-memory domain); the sim engine derates dgemm on
// remote operands to model NUMA/non-cacheable access.
type Mat struct {
	Buf        Buffer
	Off        int
	LD         int
	Rows, Cols int
	Trans      bool
	Remote     bool
}

// Elems returns the number of elements the view touches, assuming LD >= Cols.
func (m Mat) Elems() int { return m.Rows * m.Cols }

// Valid checks the view fits inside its buffer.
func (m Mat) Valid() error {
	if m.Buf == nil {
		return fmt.Errorf("rt: Mat with nil buffer")
	}
	if m.Rows < 0 || m.Cols < 0 || m.LD < m.Cols || m.Off < 0 {
		return fmt.Errorf("rt: malformed Mat %dx%d ld=%d off=%d", m.Rows, m.Cols, m.LD, m.Off)
	}
	if m.Rows > 0 && m.Cols > 0 {
		last := m.Off + (m.Rows-1)*m.LD + m.Cols
		if last > m.Buf.Len() {
			return fmt.Errorf("rt: Mat overruns buffer: needs %d elements, have %d", last, m.Buf.Len())
		}
	}
	return nil
}

// OpShape returns the shape of the operand after applying Trans.
func (m Mat) OpShape() (r, c int) {
	if m.Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// BufferReleaser is an optional capability of a Ctx: returning a LocalBuf
// scratch buffer to the engine for reuse. A released buffer must not be
// touched again by the caller. Engines without buffer pooling simply do not
// implement it, and callers skip the release.
type BufferReleaser interface {
	ReleaseBuf(b Buffer)
}

// Adopter is an optional capability of a Ctx (found through the Unwrap chain
// like BufferReleaser) that only an engine whose ranks live in the caller's
// address space can offer: binding memory the caller already holds as the
// segments of a Global — the paper's direct-access flavour applied to the
// operands themselves.
type Adopter interface {
	// Adopt is collective like Malloc, and sequenced with it. Each rank
	// contributes seg, the window holding its block of a row-major matrix
	// with row stride ld: elements [origin, origin+(rows-1)*ld+cols), empty
	// for an empty block. Nothing is allocated or copied; the Global's LD is
	// ld. The memory stays the caller's: it must outlive the Global, and a
	// window that is only read must not be written meanwhile.
	Adopt(seg []float64, ld int) Global
}

// WindowGetter is an optional capability of a Ctx whose ranks read each
// other's segments in one address space: the one-sided get that lands where
// the caller reads. GetWindow books the transfer of the rows x cols region
// at off of rank's segment (rows ld apart) exactly as NbGetSub books it —
// one get of rows*cols elements, shared or remote by the same rule — and
// returns the region where it lies instead of copying it: a view to read,
// never to write, valid while the segment's owner leaves it unwritten. ok is
// false when the ctx cannot serve the region so (a wrapper over an engine
// without windows); nothing is booked then, and the caller fetches it.
//
// Unlike the capabilities around it, it is found by a direct type assertion
// on the ctx at hand, never through Unwrap: a wrapper that sees every get
// (fault injection, the staging band) must see window gets too, so one that
// does not forward GetWindow hides it.
type WindowGetter interface {
	GetWindow(g Global, rank, off, ld, rows, cols int) (m Mat, ok bool)
}

// FindAdopter walks c's Unwrap chain and returns the first layer that can
// adopt caller memory, or nil.
func FindAdopter(c Ctx) Adopter { return Find[Adopter](c) }

// Unwrapper is implemented by Ctx middleware (fault injection, the staging band)
// so capability interfaces provided by the underlying engine stay
// discoverable through the wrapper chain.
type Unwrapper interface {
	Unwrap() Ctx
}

// Find walks c's Unwrap chain and returns the first layer that provides
// capability T, or T's zero value (a nil interface) when none does. It is
// the only such walk: every capability lookup goes through it.
func Find[T any](c Ctx) T {
	for c != nil {
		if t, ok := c.(T); ok {
			return t
		}
		u, ok := c.(Unwrapper)
		if !ok {
			break
		}
		c = u.Unwrap()
	}
	var none T
	return none
}

// FindBufferReleaser walks c's Unwrap chain and returns the first layer
// that can recycle scratch buffers, or nil.
func FindBufferReleaser(c Ctx) BufferReleaser { return Find[BufferReleaser](c) }

// Recorded is an optional capability of a Ctx: exposing the obs.Recorder
// this process's spans land in. Algorithm layers that want to emit their
// own spans (e.g. the executor's fetch-issue intervals) discover it with
// FindRecorder; the result may be nil, which obs treats as disabled for
// free.
type Recorded interface {
	// ObsRecorder returns the recorder attached to this process, or nil
	// when tracing is off.
	ObsRecorder() *obs.Recorder
}

// FindRecorder walks c's Unwrap chain and returns the attached recorder, or
// nil when no layer records (a valid, zero-cost recorder per obs).
func FindRecorder(c Ctx) *obs.Recorder {
	if r := Find[Recorded](c); r != nil {
		return r.ObsRecorder()
	}
	return nil
}

// Stats accumulates per-process communication and computation accounting.
// It is an alias of the observability spine's canonical counter block, so
// engines, /metrics exporters and benchmark dumps all share one definition.
// Times are in engine seconds (wall for the real engine, virtual for the
// sim engine).
type Stats = obs.Meters

// Topology describes how ranks map onto physical nodes and shared-memory
// domains. On clusters a domain is an SMP node; on the SGI Altix and Cray X1
// the paper treats the whole machine as one domain even though the hardware
// is built from small bricks, so the two notions are kept separate.
//
// A domain is a run of consecutive ranks that load/store each other's
// memory; between domains ranks reach each other only through the
// interconnect (one-sided RMA, or messages) — the paper's two levels. The hierarchical multiplication (internal/hier)
// uses the domains as its groups: the outer level moves panels between
// domains, the inner level is a flat SRUMMA team inside each.
type Topology struct {
	NProcs       int
	ProcsPerNode int
	// DomainSpansMachine marks scalable shared-memory systems where every
	// rank can load/store (or memcpy) any other rank's segment.
	DomainSpansMachine bool
}

// Validate checks the topology is usable.
func (t Topology) Validate() error {
	if t.NProcs <= 0 {
		return fmt.Errorf("rt: %d processes", t.NProcs)
	}
	if t.ProcsPerNode <= 0 {
		return fmt.Errorf("rt: %d procs per node", t.ProcsPerNode)
	}
	return nil
}

// NumNodes returns the number of physical nodes (the last may be partial).
func (t Topology) NumNodes() int {
	return (t.NProcs + t.ProcsPerNode - 1) / t.ProcsPerNode
}

// NodeOf returns the physical node of rank.
func (t Topology) NodeOf(rank int) int { return rank / t.ProcsPerNode }

// domainSize is the number of ranks per shared-memory domain: the whole
// machine when the domain spans it, one node otherwise.
func (t Topology) domainSize() int {
	if t.DomainSpansMachine {
		return t.NProcs
	}
	return t.ProcsPerNode
}

// DomainOf returns the shared-memory domain of rank.
func (t Topology) DomainOf(rank int) int { return rank / t.domainSize() }

// SameDomain reports whether two ranks share a memory domain.
func (t Topology) SameDomain(a, b int) bool { return t.DomainOf(a) == t.DomainOf(b) }

// NumDomains returns the number of shared-memory domains (the last may be
// partial).
func (t Topology) NumDomains() int {
	ds := t.domainSize()
	return (t.NProcs + ds - 1) / ds
}

// DomainRanks returns the rank range [lo, hi) of domain d.
func (t Topology) DomainRanks(d int) (lo, hi int) {
	ds := t.domainSize()
	lo = d * ds
	return lo, min(lo+ds, t.NProcs)
}

// Ctx is the per-process runtime handle. All methods are called from the
// process's own goroutine. Element counts are float64 elements; engines
// convert to bytes (8 per element) for transport accounting.
type Ctx interface {
	// Identity and topology.
	Rank() int
	Size() int
	Topo() Topology

	// Now returns seconds since the run started (virtual or wall).
	Now() float64
	// Stats returns this process's accounting (live; read after the run).
	Stats() *Stats

	// Malloc collectively allocates a Global with `elems` elements on every
	// rank (ranks may pass different sizes; all must call). Free releases it
	// collectively.
	Malloc(elems int) Global
	Free(g Global)
	// LocalBuf allocates process-local scratch. Its contents are
	// unspecified (an engine may recycle released buffers as they were
	// left): write a region before reading it.
	LocalBuf(elems int) Buffer
	// Local returns this rank's own segment of g for in-place use.
	Local(g Global) Buffer
	// CanDirect reports whether rank's segment of a Global may be accessed
	// directly (same shared-memory domain and, on the sim engine, a
	// platform whose remote memory is load/store accessible).
	CanDirect(rank int) bool
	// Direct returns rank's segment for direct load/store access. Panics if
	// !CanDirect(rank).
	Direct(g Global, rank int) Buffer

	// One-sided operations (ARMCI model): one get, strided and nonblocking,
	// completed by Wait. The region it names must pass CheckRegion against
	// rank's segment.
	//
	// NbGetSub (ARMCI_NbGetS) fetches the rows x cols sub-block starting at
	// element off of rank's segment, whose rows are ld elements apart,
	// packing it tight row-major into dst at dstOff. SRUMMA fetches exactly
	// the sub-blocks its tasks multiply, so on misaligned (transposed /
	// p != q) layouts it moves no excess data.
	NbGetSub(g Global, rank, off, ld, rows, cols int, dst Buffer, dstOff int) Handle
	Wait(h Handle)

	// Two-sided operations (MPI model).
	Send(to, tag int, src Buffer, off, n int)
	Recv(from, tag int, dst Buffer, off, n int)
	Isend(to, tag int, src Buffer, off, n int) Handle
	Irecv(from, tag int, dst Buffer, off, n int) Handle

	// Barrier synchronizes all ranks.
	Barrier()

	// Gemm computes c = alpha*op(a)*op(b) + beta*c. The real engine executes
	// it; the sim engine charges modeled time.
	Gemm(alpha float64, a, b Mat, beta float64, c Mat)
	// Pack copies the src view into dst as a tight row-major block starting
	// at dstOff (charging memory-copy cost on the sim engine).
	Pack(src Mat, dst Buffer, dstOff int)
	// UnpackTranspose scatters a tight row-major (dst.Cols x dst.Rows)
	// block from src at srcOff into the dst view transposed:
	// dst(i,j) = block(j,i). Redistribution of transposed operands (the
	// pdgemm baseline's PxTRANS step) is built on it.
	UnpackTranspose(src Buffer, srcOff int, dst Mat)

	// WriteBuf and ReadBuf are harness operations OUTSIDE the performance
	// model: they initialize inputs and extract results at zero modeled
	// cost. The real engine moves actual data; the sim engine only
	// validates ranges (ReadBuf returns nil there).
	WriteBuf(dst Buffer, off int, vals []float64)
	ReadBuf(src Buffer, off, n int) []float64
}

// NbGet is the contiguous get: n elements at off of rank's segment of g,
// as the one-row region of NbGetSub.
func NbGet(c Ctx, g Global, rank, off, n int, dst Buffer, dstOff int) Handle {
	return c.NbGetSub(g, rank, off, n, 1, n, dst, dstOff)
}

// Get is the blocking contiguous get.
func Get(c Ctx, g Global, rank, off, n int, dst Buffer, dstOff int) {
	c.Wait(NbGet(c, g, rank, off, n, dst, dstOff))
}

// CheckRegion is the one region check behind every engine's get, the
// in-process engine's put and the multi-process engine's RMA server: a
// rows x cols region whose rows are ld elements apart, starting at element
// off, must lie inside a segment of segLen elements. An empty region (no
// rows or no columns) only needs well-formed geometry. The arithmetic
// cannot overflow, whatever a hostile frame carries.
func CheckRegion(segLen, off, ld, rows, cols int) error {
	if rows < 0 || cols < 0 || ld < cols || off < 0 {
		return fmt.Errorf("rt: malformed region %dx%d ld=%d off=%d", rows, cols, ld, off)
	}
	if rows == 0 || cols == 0 {
		return nil
	}
	// last = off + (rows-1)*ld + cols <= segLen, rearranged so nothing grows.
	if off > segLen || cols > segLen-off || rows-1 > (segLen-off-cols)/ld {
		last := float64(off) + float64(rows-1)*float64(ld) + float64(cols)
		return fmt.Errorf("rt: region ends at %.0f of %d", last, segLen)
	}
	return nil
}

// MustRegion panics with CheckRegion's error: the in-process form, where a
// bad region is a bug in the calling algorithm.
func MustRegion(segLen, off, ld, rows, cols int) {
	if err := CheckRegion(segLen, off, ld, rows, cols); err != nil {
		panic(err)
	}
}
