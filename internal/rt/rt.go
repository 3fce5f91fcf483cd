// Package rt defines the runtime abstraction every parallel algorithm in
// this repository is written against. An algorithm is an SPMD body running
// once per process against a Ctx, which exposes:
//
//   - ARMCI-style one-sided communication (collective Malloc, one strided
//     nonblocking get and one strided nonblocking put completed by Wait,
//     locality queries, direct shared-memory access) — what SRUMMA uses.
//     A contiguous or blocking transfer is a free function over that pair
//     (Get, NbGet, Put below), so a wrapper that overrides NbGetSub,
//     NbPutSub and Wait has intercepted all data movement;
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

// KernelTuner is an optional capability of a Ctx (or of the engine ctx at
// the bottom of a wrapper chain — discover it by walking Unwrap): setting
// the number of worker goroutines the local Gemm kernel may use. Engines
// that execute real flops honor it; the sim engine models a single-threaded
// dgemm and ignores it. Callers find it with a type assertion and fall back
// to the engine default when absent.
type KernelTuner interface {
	// SetKernelThreads sets this process's local-dgemm worker count.
	// n <= 0 restores the engine default.
	SetKernelThreads(n int)
}

// BufferReleaser is an optional capability of a Ctx: returning a LocalBuf
// scratch buffer to the engine for reuse. A released buffer must not be
// touched again by the caller. Engines without buffer pooling simply do not
// implement it, and callers skip the release.
type BufferReleaser interface {
	ReleaseBuf(b Buffer)
}

// Adopter is an optional capability of a Ctx (found through the Unwrap chain
// like KernelTuner) that only an engine whose ranks live in the caller's
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

// FindAdopter walks c's Unwrap chain and returns the first layer that can
// adopt caller memory, or nil.
func FindAdopter(c Ctx) Adopter { return Find[Adopter](c) }

// Runner abstracts "execute one SPMD body and return per-rank stats" — the
// engine lifecycle, as opposed to Ctx, which is the in-body API. Two
// lifecycles implement it on the real engine: the one-shot form (spawn
// ranks, run, tear down; armci.OneShot) and the persistent team (ranks stay
// parked between bodies; armci.Team). Harness and serving code written
// against Runner works with either, so a test path and a production path
// can share one multiply implementation.
type Runner interface {
	Run(body func(Ctx)) ([]*Stats, error)
}

// Unwrapper is implemented by Ctx middleware (fault injection, resilience)
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

// FindKernelTuner walks c's Unwrap chain and returns the first layer that
// can tune kernel threads, or nil.
func FindKernelTuner(c Ctx) KernelTuner { return Find[KernelTuner](c) }

// FindBufferReleaser walks c's Unwrap chain and returns the first layer
// that can recycle scratch buffers, or nil.
func FindBufferReleaser(c Ctx) BufferReleaser { return Find[BufferReleaser](c) }

// Health is the capability a fault-tolerant runtime layer (the
// internal/faults resilient wrapper) exposes to the SRUMMA executor, which
// plans around the verdict: tasks waiting on an owner that IsSlow run after
// the others, and a Degraded rank fetches blocking, one buffer per operand.
type Health interface {
	IsSlow(rank int) bool
	Degraded() bool
}

// FindHealth walks c's Unwrap chain and returns the first layer that
// reports rank health, or nil.
func FindHealth(c Ctx) Health { return Find[Health](c) }

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
// A third, logical level sits on top: ranks are partitioned into GROUPS of
// GroupSize consecutive ranks. Groups are the unit of the hierarchical
// two-level multiplication (internal/hier): the outer level schedules panel
// movement between groups, the inner level is a flat SRUMMA team inside
// each group. GroupSize == 0 means "groups coincide with shared-memory
// domains", the natural default; an explicit GroupSize lets a planner carve
// a large domain into several groups.
type Topology struct {
	NProcs       int
	ProcsPerNode int
	// DomainSpansMachine marks scalable shared-memory systems where every
	// rank can load/store (or memcpy) any other rank's segment.
	DomainSpansMachine bool
	// GroupSize is the number of consecutive ranks per logical group, or 0
	// when groups are the shared-memory domains themselves.
	GroupSize int
}

// Validate checks the topology is usable.
func (t Topology) Validate() error {
	if t.NProcs <= 0 {
		return fmt.Errorf("rt: %d processes", t.NProcs)
	}
	if t.ProcsPerNode <= 0 {
		return fmt.Errorf("rt: %d procs per node", t.ProcsPerNode)
	}
	if t.GroupSize < 0 {
		return fmt.Errorf("rt: %d group size", t.GroupSize)
	}
	return nil
}

// NumNodes returns the number of physical nodes (the last may be partial).
func (t Topology) NumNodes() int {
	return (t.NProcs + t.ProcsPerNode - 1) / t.ProcsPerNode
}

// NodeOf returns the physical node of rank.
func (t Topology) NodeOf(rank int) int { return rank / t.ProcsPerNode }

// DomainOf returns the shared-memory domain of rank.
func (t Topology) DomainOf(rank int) int {
	if t.DomainSpansMachine {
		return 0
	}
	return t.NodeOf(rank)
}

// SameDomain reports whether two ranks share a memory domain.
func (t Topology) SameDomain(a, b int) bool { return t.DomainOf(a) == t.DomainOf(b) }

// groupSize resolves GroupSize: an unset (0) group size means groups are
// the shared-memory domains — the whole machine when the domain spans it,
// one node otherwise.
func (t Topology) groupSize() int {
	if t.GroupSize > 0 {
		return t.GroupSize
	}
	if t.DomainSpansMachine {
		return t.NProcs
	}
	return t.ProcsPerNode
}

// GroupOf returns the logical group of rank.
func (t Topology) GroupOf(rank int) int { return rank / t.groupSize() }

// SameGroup reports whether two ranks belong to the same logical group.
func (t Topology) SameGroup(a, b int) bool { return t.GroupOf(a) == t.GroupOf(b) }

// NumGroups returns the number of logical groups (the last may be partial).
func (t Topology) NumGroups() int {
	gs := t.groupSize()
	return (t.NProcs + gs - 1) / gs
}

// GroupRanks returns the rank range [lo, hi) of group g.
func (t Topology) GroupRanks(g int) (lo, hi int) {
	gs := t.groupSize()
	lo = g * gs
	hi = lo + gs
	if hi > t.NProcs {
		hi = t.NProcs
	}
	return lo, hi
}

// GroupsNestInDomains reports whether every group fits inside one
// shared-memory domain — the precondition for the hierarchical path's
// staged bands to be readable by direct load/store within a group.
func (t Topology) GroupsNestInDomains() bool {
	for g := 0; g < t.NumGroups(); g++ {
		lo, hi := t.GroupRanks(g)
		if !t.SameDomain(lo, hi-1) {
			return false
		}
	}
	return true
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
	// LocalBuf allocates process-local scratch.
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

	// One-sided operations (ARMCI model): one get, one put, both strided
	// and nonblocking, completed by Wait. The region they name must pass
	// CheckRegion against rank's segment.
	//
	// NbGetSub (ARMCI_NbGetS) fetches the rows x cols sub-block starting at
	// element off of rank's segment, whose rows are ld elements apart,
	// packing it tight row-major into dst at dstOff. SRUMMA fetches exactly
	// the sub-blocks its tasks multiply, so on misaligned (transposed /
	// p != q) layouts it moves no excess data.
	NbGetSub(g Global, rank, off, ld, rows, cols int, dst Buffer, dstOff int) Handle
	// NbPutSub (ARMCI_NbPutS) scatters a tight row-major rows x cols block
	// from src at srcOff into rank's segment at element off with row stride
	// ld. The source buffer must not be reused until completion.
	NbPutSub(src Buffer, srcOff int, g Global, rank, off, ld, rows, cols int) Handle
	// Acc atomically accumulates (ARMCI_Acc): rank's segment[off+i] +=
	// alpha * src[srcOff+i] for i in [0, n). Blocking; concurrent Accs to
	// overlapping regions are safe.
	Acc(alpha float64, src Buffer, srcOff, n int, g Global, rank, off int)
	// FetchAdd atomically adds delta to element off of rank's segment and
	// returns the PREVIOUS value (ARMCI_Rmw / GA read_inc) — the primitive
	// behind Global Arrays' dynamic load balancing. Blocking; linearizable
	// with respect to other FetchAdds on the same element. The sim engine
	// maintains real counter values (control flow depends on them) while
	// charging a round trip to the owner.
	FetchAdd(g Global, rank, off int, delta float64) float64
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
	// Unpack is the inverse: scatter a tight block from src at srcOff into
	// the dst view.
	Unpack(src Buffer, srcOff int, dst Mat)
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

// Put is the blocking contiguous put: n elements of src at srcOff land at
// off of rank's segment of g.
func Put(c Ctx, src Buffer, srcOff, n int, g Global, rank, off int) {
	c.Wait(c.NbPutSub(src, srcOff, g, rank, off, n, 1, n))
}

// CheckRegion is the one region check behind every engine's get, put and
// checksum and behind the multi-process engine's RMA server: a rows x cols
// region whose rows are ld elements apart, starting at element off, must lie
// inside a segment of segLen elements. An empty region (no rows or no
// columns) only needs well-formed geometry. The arithmetic cannot overflow,
// whatever a hostile frame carries.
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
