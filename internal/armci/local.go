package armci

import (
	"fmt"
	goruntime "runtime" // the package's own engine type is named runtime
	"sync/atomic"
	"time"

	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// LocalOps is the real engines' local half: everything a rank does to
// memory in its own address space, with its accounting and spans — the
// buffers and their pooled scratch, the local dgemm and its thread count,
// pack and the transposing unpack, the strided row copy behind a get whose
// source is directly addressable, the harness accessors. Both engines that move
// real data embed it: this package's goroutine ranks, and internal/ipcrt's
// worker processes, whose mmap'd segments are wrapped with Segment. What an
// engine adds is how it reaches memory that is NOT its own, and how it
// synchronises.
//
// All methods but ObsRecorder and SetRecorder belong to the rank's own
// goroutine.
type LocalOps struct {
	rank  int
	stats *rt.Stats
	// kernelThreads is the local-dgemm worker count, DefaultKernelThreads
	// at Init.
	kernelThreads int
	// rec receives wall-clock spans when tracing is on (nil otherwise — the
	// default, in which case every span helper is a pointer compare). Atomic
	// because ipcrt's RMA server goroutines read it while jobs come and go.
	rec atomic.Pointer[obs.Recorder]
}

// Init makes l the local half of rank in an nprocs-rank run: fresh
// accounting, the machine's kernel thread share, no recorder.
func (l *LocalOps) Init(rank, nprocs int) {
	l.rank = rank
	l.kernelThreads = DefaultKernelThreads(nprocs)
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

// DefaultKernelThreads is the engine's oversubscription guard: with nprocs
// SPMD ranks already competing for GOMAXPROCS cores, each rank's local
// dgemm gets an equal share of the remaining parallelism (at least one
// worker). A multiply on 4 ranks of a 16-core machine thus runs 4 kernel
// workers per rank — 16 busy goroutines total, not 64. The width is the
// machine's, not a setting: every rank computes it at Init, and operator
// tooling (srumma-info, srumma-serve's startup log) shows it.
func DefaultKernelThreads(nprocs int) int {
	return max(1, goruntime.GOMAXPROCS(0)/max(1, nprocs))
}

// Segment wraps memory an engine already owns (a Global segment) as a
// Buffer LocalOps can compute on. The real engines' buffers are mat.Bufs;
// this one is built by hand, so the pool refuses it and ReleaseBuf panics
// instead of aliasing live memory into a later LocalBuf.
func Segment(data []float64) rt.Buffer { return &mat.Buf{Data: data} }

// Floats returns the elements behind a Buffer of the real engines.
func Floats(b rt.Buffer) []float64 {
	rb, ok := b.(*mat.Buf)
	if !ok {
		panic(fmt.Sprintf("armci: foreign buffer type %T", b))
	}
	return rb.Data
}

// Window returns [off, off+n) of b, or panics naming the op.
func Window(what string, b rt.Buffer, off, n int) []float64 {
	d := Floats(b)
	if off < 0 || n < 0 || off+n > len(d) {
		panic(fmt.Sprintf("armci: %s range [%d,%d) of %d", what, off, off+n, len(d)))
	}
	return d[off : off+n]
}

// LocalBuf draws scratch from the buffer pool (mat.GetBuf), so the SRUMMA
// executor's per-multiply communication buffers (released through
// ReleaseBuf) stop hitting the allocator once warm. A LocalBuf's contents
// are unspecified, so its caller writes before it reads. Every caller does
// — the executor's pipe buffers and the baselines' panels are filled by the
// get, broadcast or pack that precedes each read of exactly that region,
// and ga, mp and redist stage what they send or receive into them first.
func (l *LocalOps) LocalBuf(elems int) rt.Buffer {
	l.stats.ScratchBytes += int64(elems) * 8
	return mat.GetBuf(elems)
}

// ReleaseBuf gives a LocalBuf scratch buffer back to the pool
// (rt.BufferReleaser). Only buffers LocalBuf itself handed out are
// accepted, exactly once: releasing a foreign buffer (a Global segment,
// another engine's type) or the same buffer twice panics, because pooling
// either would alias live or recycled memory into a later LocalBuf.
func (l *LocalOps) ReleaseBuf(buf rt.Buffer) {
	b, ok := buf.(*mat.Buf)
	if !ok {
		panic(fmt.Sprintf("armci: ReleaseBuf of foreign buffer type %T", buf))
	}
	mat.PutBuf(b)
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
	l.bookGet(shared, rows*cols)
	l.Span(obs.KindGet, t0)
}

// bookGet accounts one get of elems elements, shared-memory or remote.
func (l *LocalOps) bookGet(shared bool, elems int) {
	if shared {
		l.stats.BytesShared += int64(elems) * 8
		l.stats.GetsShared++
	} else {
		l.stats.BytesRemote += int64(elems) * 8
		l.stats.GetsRemote++
	}
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
