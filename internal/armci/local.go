package armci

import (
	"fmt"
	goruntime "runtime" // the package's own engine type is named runtime
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// LocalOps is the real engines' local half: everything a rank does to
// memory in its own address space, with its accounting and spans — the
// buffer type and its pooled scratch, the local dgemm and its thread count,
// pack / unpack, the strided row copy behind a get or put whose other end
// is directly addressable, the harness accessors. Both engines that move
// real data embed it: this package's goroutine ranks, and internal/ipcrt's
// worker processes, whose mmap'd segments are wrapped with Segment. What an
// engine adds is how it reaches memory that is NOT its own, and how it
// synchronises.
//
// All methods but ObsRecorder and SetRecorder belong to the rank's own
// goroutine.
type LocalOps struct {
	rank, nprocs int
	stats        *rt.Stats
	// kernelThreads is the local-dgemm worker count (rt.KernelTuner).
	kernelThreads int
	// rec receives wall-clock spans when tracing is on (nil otherwise — the
	// default, in which case every span helper is a pointer compare). Atomic
	// because ipcrt's RMA server goroutines read it while jobs come and go.
	rec atomic.Pointer[obs.Recorder]
}

// Init makes l the local half of rank in an nprocs-rank run: fresh
// accounting, the default kernel thread share, no recorder.
func (l *LocalOps) Init(rank, nprocs int) {
	l.rank, l.nprocs = rank, nprocs
	l.kernelThreads = defaultKernelThreads(nprocs)
	l.stats = &rt.Stats{}
}

func (l *LocalOps) Rank() int        { return l.rank }
func (l *LocalOps) Stats() *rt.Stats { return l.stats }

// ResetStats starts a new job's accounting and returns it.
func (l *LocalOps) ResetStats() *rt.Stats {
	l.stats = &rt.Stats{}
	return l.stats
}

// SetRecorder attaches (or, with nil, detaches) the recorder this rank's
// spans land in, on lane == rank.
func (l *LocalOps) SetRecorder(r *obs.Recorder) { l.rec.Store(r) }

// ObsRecorder implements rt.Recorded: algorithm layers (the executor's
// fetch-issue spans) discover this rank's recorder through the Ctx.
func (l *LocalOps) ObsRecorder() *obs.Recorder { return l.rec.Load() }

// SpanStart returns time.Now when tracing is on, the zero time otherwise.
// Ops that do not already read the clock for stats use it so the disabled
// path never touches the clock.
func (l *LocalOps) SpanStart() time.Time { return l.rec.Load().SpanStart() }

// Span records one wall-clock interval ending now on this rank's lane.
func (l *LocalOps) Span(k obs.Kind, t0 time.Time) { l.rec.Load().SpanEnd(l.rank, k, t0) }

// defaultKernelThreads is the oversubscription guard: with nprocs SPMD
// ranks already competing for GOMAXPROCS cores, each rank's local dgemm
// gets an equal share of the remaining parallelism (at least one worker). A
// multiply on 4 ranks of a 16-core machine thus defaults to 4 kernel
// workers per rank — 16 busy goroutines total, not 64.
func defaultKernelThreads(nprocs int) int {
	return max(1, goruntime.GOMAXPROCS(0)/nprocs)
}

// DefaultKernelThreads reports the engine's oversubscription guard for an
// nprocs-rank run on this machine: the per-rank local-dgemm worker count a
// rank gets when nothing overrides it. Exposed so operator tooling
// (srumma-info) can show how a deployment will slice the machine.
func DefaultKernelThreads(nprocs int) int {
	return defaultKernelThreads(max(1, nprocs))
}

// SetKernelThreads implements rt.KernelTuner: it sets how many goroutines
// this rank's Gemm calls may use (n <= 0 restores the engine default).
func (l *LocalOps) SetKernelThreads(n int) {
	if n <= 0 {
		n = defaultKernelThreads(l.nprocs)
	}
	l.kernelThreads = n
}

// buffer is a real float64 buffer. scratch marks buffers handed out by
// LocalBuf (the only ones ReleaseBuf accepts); released marks a scratch
// buffer currently surrendered to the pools. Together they make pooled
// scratch misuse — double release, or releasing a Global segment / mailbox
// payload — fail loudly instead of aliasing a recycled buffer into a later
// request and silently breaking LocalBuf's zeroed-buffer guarantee.
type buffer struct {
	data     []float64
	scratch  bool
	released bool
}

func (b *buffer) Len() int { return len(b.data) }

// Segment wraps memory an engine already owns (a mapped Global segment) as
// a Buffer LocalOps can compute on. It is not scratch: ReleaseBuf refuses it.
func Segment(data []float64) rt.Buffer { return &buffer{data: data} }

// Floats returns the elements behind a Buffer of the real engines.
func Floats(b rt.Buffer) []float64 {
	rb, ok := b.(*buffer)
	if !ok {
		panic(fmt.Sprintf("armci: foreign buffer type %T", b))
	}
	return rb.data
}

// Window returns [off, off+n) of b, or panics naming the op.
func Window(what string, b rt.Buffer, off, n int) []float64 {
	d := Floats(b)
	if off < 0 || n < 0 || off+n > len(d) {
		panic(fmt.Sprintf("armci: %s range [%d,%d) of %d", what, off, off+n, len(d)))
	}
	return d[off : off+n]
}

// Scratch-buffer recycling. LocalBuf rounds requests up to power-of-two
// size classes and serves them from per-class pools of *buffer, so the
// SRUMMA executor's per-multiply communication buffers (released through
// ReleaseBuf) stop hitting the allocator once warm. Both the backing array
// and the buffer header are recycled; reused memory is cleared so LocalBuf
// keeps its zeroed-buffer guarantee.
const scratchClasses = 28 // largest pooled class: 2^27 elements = 1 GiB

var scratchPools [scratchClasses]sync.Pool

// sizeClass returns the smallest c with 1<<c >= n (n >= 1).
func sizeClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

func (l *LocalOps) LocalBuf(elems int) rt.Buffer {
	l.stats.ScratchBytes += int64(elems) * 8
	if elems <= 0 {
		return &buffer{scratch: true}
	}
	cls := sizeClass(elems)
	if cls >= scratchClasses {
		return &buffer{data: make([]float64, elems), scratch: true}
	}
	if v := scratchPools[cls].Get(); v != nil {
		b := v.(*buffer)
		b.data = b.data[:elems]
		clear(b.data)
		b.scratch, b.released = true, false
		return b
	}
	b := &buffer{data: make([]float64, 1<<cls), scratch: true}
	b.data = b.data[:elems]
	return b
}

// ReleaseBuf returns a LocalBuf scratch buffer to the size-class pools
// (rt.BufferReleaser). Only buffers LocalBuf itself handed out are
// accepted, exactly once: releasing a foreign buffer (a Global segment, a
// mailbox payload, another engine's type) or the same buffer twice panics,
// because pooling either would alias live or recycled memory into a later
// LocalBuf and corrupt its zeroed-buffer guarantee. Oversized buffers
// (beyond the largest pooled class) are accepted and fall through to the
// garbage collector.
func (l *LocalOps) ReleaseBuf(buf rt.Buffer) {
	b, ok := buf.(*buffer)
	if !ok {
		panic(fmt.Sprintf("armci: ReleaseBuf of foreign buffer type %T", buf))
	}
	if !b.scratch {
		panic("armci: ReleaseBuf of a buffer LocalBuf did not produce (Global segment or mailbox payload?)")
	}
	if b.released {
		panic("armci: double ReleaseBuf of the same scratch buffer")
	}
	b.released = true
	cp := cap(b.data)
	if cp == 0 || cp&(cp-1) != 0 {
		return
	}
	cls := sizeClass(cp)
	if cls >= scratchClasses {
		return
	}
	b.data = b.data[:cp]
	scratchPools[cls].Put(b)
}

// The row walks below are over a region rt.CheckRegion has passed. A region
// without columns has no rows to walk either: the check does not hold its
// row starts inside the segment.

// PackRegion is the strided row copy of a get: the rows x cols region at
// off of seg (rows ld apart) lands tight in dst.
func PackRegion(dst, seg []float64, off, ld, rows, cols int) {
	for r := 0; r < rows && cols > 0; r++ {
		copy(dst[r*cols:(r+1)*cols], seg[off+r*ld:off+r*ld+cols])
	}
}

// GetRegion is a strided get whose source segment this rank can address:
// seg is the owner's segment, shared whether it counts as shared-memory or
// remote traffic. In one address space the copy is the whole operation, so
// the nonblocking contract is met by completing eagerly.
func (l *LocalOps) GetRegion(seg []float64, shared bool, off, ld, rows, cols int, dst rt.Buffer, dstOff int) {
	t0 := l.SpanStart()
	rt.MustRegion(len(seg), off, ld, rows, cols)
	PackRegion(Window("get dst", dst, dstOff, rows*cols), seg, off, ld, rows, cols)
	if shared {
		l.stats.BytesShared += int64(rows*cols) * 8
		l.stats.GetsShared++
	} else {
		l.stats.BytesRemote += int64(rows*cols) * 8
		l.stats.GetsRemote++
	}
	l.Span(obs.KindGet, t0)
}

// PutRegion is the symmetric strided put into an addressable segment.
func (l *LocalOps) PutRegion(src rt.Buffer, srcOff int, seg []float64, shared bool, off, ld, rows, cols int) {
	t0 := l.SpanStart()
	rt.MustRegion(len(seg), off, ld, rows, cols)
	s := Window("put src", src, srcOff, rows*cols)
	for r := 0; r < rows && cols > 0; r++ {
		copy(seg[off+r*ld:off+r*ld+cols], s[r*cols:(r+1)*cols])
	}
	l.stats.Puts++
	if shared {
		l.stats.BytesShared += int64(rows*cols) * 8
	} else {
		l.stats.BytesRemote += int64(rows*cols) * 8
	}
	l.Span(obs.KindPut, t0)
}

func matView(m rt.Mat) *mat.Matrix {
	if err := m.Valid(); err != nil {
		panic(err)
	}
	end := m.Off
	if m.Rows > 0 && m.Cols > 0 {
		end = m.Off + (m.Rows-1)*m.LD + m.Cols
	}
	return &mat.Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.LD, Data: Floats(m.Buf)[m.Off:end]}
}

func (l *LocalOps) Gemm(alpha float64, a, b rt.Mat, beta float64, cm rt.Mat) {
	t0 := time.Now()
	am, bm, cmm := matView(a), matView(b), matView(cm)
	var err error
	if l.kernelThreads > 1 {
		err = mat.GemmParallel(l.kernelThreads, a.Trans, b.Trans, alpha, am, bm, beta, cmm)
	} else {
		err = mat.Gemm(a.Trans, b.Trans, alpha, am, bm, beta, cmm)
	}
	if err != nil {
		panic(fmt.Sprintf("armci: Gemm: %v", err))
	}
	m, _ := a.OpShape()
	_, n := b.OpShape()
	k := a.Cols
	if a.Trans {
		k = a.Rows
	}
	l.stats.Flops += 2 * float64(m) * float64(n) * float64(k)
	l.stats.ComputeTime += time.Since(t0).Seconds()
	l.Span(obs.KindGemm, t0)
}

func (l *LocalOps) Pack(src rt.Mat, dst rt.Buffer, dstOff int) {
	t0 := time.Now()
	mat.PackInto(Window("Pack", dst, dstOff, src.Rows*src.Cols), matView(src), 0, 0, src.Rows, src.Cols)
	l.packed(t0)
}

func (l *LocalOps) Unpack(src rt.Buffer, srcOff int, dst rt.Mat) {
	t0 := time.Now()
	mat.UnpackFrom(matView(dst), Window("Unpack", src, srcOff, dst.Rows*dst.Cols), 0, 0, dst.Rows, dst.Cols)
	l.packed(t0)
}

func (l *LocalOps) UnpackTranspose(src rt.Buffer, srcOff int, dst rt.Mat) {
	t0 := time.Now()
	mat.UnpackTransposeFrom(matView(dst), Window("UnpackTranspose", src, srcOff, dst.Rows*dst.Cols), 0, 0, dst.Rows, dst.Cols)
	l.packed(t0)
}

func (l *LocalOps) packed(t0 time.Time) {
	l.stats.PackTime += time.Since(t0).Seconds()
	l.Span(obs.KindPack, t0)
}

func (l *LocalOps) WriteBuf(dst rt.Buffer, off int, vals []float64) {
	copy(Window("WriteBuf", dst, off, len(vals)), vals)
}

func (l *LocalOps) ReadBuf(src rt.Buffer, off, n int) []float64 {
	out := make([]float64, n)
	copy(out, Window("ReadBuf", src, off, n))
	return out
}
