// Package core implements SRUMMA — the paper's Shared Remote-memory based
// Universal Matrix Multiplication Algorithm. Each process owns one block of
// C ("owner computes"), builds the list of block-multiply tasks contributing
// to it, reorders the list so tasks whose operands are reachable through
// shared memory run first (warming the pipeline while remote fetches are in
// flight) and remote tasks follow the diagonal-shift order that spreads
// fetches across nodes (paper §3.1, Figure 4), then executes the list with
// double-buffered nonblocking gets that overlap communication with the
// serial dgemm calls.
package core

import (
	"fmt"

	"srumma/internal/grid"
	"srumma/internal/rt"
)

// Case selects the transpose variant of C = op(A) op(B).
type Case int

// The four dgemm transpose cases.
const (
	NN Case = iota // C = A B
	TN             // C = Aᵀ B
	NT             // C = A Bᵀ
	TT             // C = Aᵀ Bᵀ
)

// TransA reports whether A is transposed under this case.
func (cs Case) TransA() bool { return cs == TN || cs == TT }

// TransB reports whether B is transposed under this case.
func (cs Case) TransB() bool { return cs == NT || cs == TT }

func (cs Case) String() string {
	switch cs {
	case NN:
		return "C=AB"
	case TN:
		return "C=AtB"
	case NT:
		return "C=ABt"
	case TT:
		return "C=AtBt"
	}
	return fmt.Sprintf("Case(%d)", int(cs))
}

// Cases lists all four variants, for sweeps.
var Cases = []Case{NN, TN, NT, TT}

// Dims are the operation sizes: C is M x N, the contraction length is K.
type Dims struct {
	M, N, K int
}

// Validate rejects non-positive dimensions.
func (d Dims) Validate() error {
	if d.M <= 0 || d.N <= 0 || d.K <= 0 {
		return fmt.Errorf("core: dimensions %dx%dx%d must be positive", d.M, d.N, d.K)
	}
	return nil
}

// Flavor selects how blocks inside a shared-memory domain are accessed.
type Flavor int

const (
	// FlavorDirect passes shared blocks straight to dgemm (cacheable
	// remote memory: SGI Altix, intra-SMP-node on clusters).
	FlavorDirect Flavor = iota
	// FlavorCopy copies shared blocks into a local buffer first (Cray X1,
	// where remote memory is not cacheable). The copy is a blocking memcpy.
	FlavorCopy
)

// Options control the SRUMMA variant; the zero value is the full algorithm
// for cacheable platforms.
type Options struct {
	Case   Case
	Flavor Flavor
	// NoDiagonalShift disables the contention-spreading task order
	// (ablation of paper Figure 4).
	NoDiagonalShift bool
	// NoSharedFirst disables moving shared-memory tasks to the front of the
	// list (ablation of the pipeline warm-up from paper §3.1 step 2).
	NoSharedFirst bool
	// SingleBuffer uses one communication buffer per matrix instead of two,
	// turning the nonblocking pipeline into blocking gets (the "blocking"
	// configuration of paper Figure 9); a rank whose runtime reports itself
	// Degraded (rt.Health) is planned the same way without being asked.
	SingleBuffer bool
	// KernelThreads, when positive, sets how many goroutines each rank's
	// local dgemm may use (forwarded to the engine via rt.KernelTuner).
	// Zero keeps the engine default — on the real engine an
	// oversubscription guard of GOMAXPROCS / nprocs workers, at least one.
	KernelThreads int
	// MaxTaskK, when positive, caps the contraction length of a single
	// task, splitting longer k-pieces. This bounds the communication
	// buffers (each fetch moves at most blockRows x MaxTaskK elements) and
	// refines the pipeline — the paper's "optimum block sizes were chosen
	// empirically" knob. Zero means tasks span whole owner blocks.
	MaxTaskK int
	// Cancel, when non-nil, is a cancellation signal — typically a
	// context.Done() channel — polled by the executor between tasks. Once
	// it fires, remaining tasks are skipped, communication scratch is
	// released back to the engine pools, the exit barrier still runs (every
	// rank shares the signal, so the collective call sequence stays aligned
	// and the engine team remains reusable), and Multiply returns
	// ErrCancelled. C is left partially updated.
	Cancel <-chan struct{}
	// Ledger, when non-nil, records per-task completion into the job-scoped
	// recovery ledger (see ledger.go): each rank marks its tasks done as
	// their C contributions land, and a RESUMED attempt (same ledger, same
	// problem) skips already-completed tasks, applying beta exactly once
	// per C region across attempts. Requires the caller to also preserve
	// the C segments between attempts; ranks whose C was lost must have
	// their ledger Reset first. Nil disables recovery with zero overhead.
	Ledger *JobLedger
	// ABFT enables Huang–Abraham-style block verification (see abft.go):
	// every produced C view is checked against operand row/column sums and
	// recomputed on mismatch. Needs a data-carrying engine (the real armci
	// engine; not the size-only sim engine). ABFTTol is the relative
	// tolerance (default 1e-6).
	ABFT    bool
	ABFTTol float64
}

// Dists returns the block distributions of A, B and C implied by the grid,
// dims and transpose case. A is stored M x K (or K x M when transposed),
// B is K x N (or N x K), C is M x N; all use the regular 2-D block
// distribution of paper Figure 2.
func Dists(g *grid.Grid, d Dims, cs Case) (da, db, dc *grid.BlockDist) {
	ar, ac := d.M, d.K
	if cs.TransA() {
		ar, ac = d.K, d.M
	}
	br, bc := d.K, d.N
	if cs.TransB() {
		br, bc = d.N, d.K
	}
	return grid.NewBlockDist(g, ar, ac), grid.NewBlockDist(g, br, bc), grid.NewBlockDist(g, d.M, d.N)
}

// Task is one block multiply-accumulate: C[view] += op(A-block sub) x
// op(B-block sub). Geometry is fully resolved so the executor needs no
// distribution math.
type Task struct {
	AOwner                 int
	ADirect                bool // operand used in place (local or direct shared access)
	ABlockRows, ABlockCols int  // full block shape at the owner (fetch unit)
	ASubI, ASubJ           int  // sub-view origin inside the block
	ASubR, ASubC           int

	BOwner                 int
	BDirect                bool
	BBlockRows, BBlockCols int
	BSubI, BSubJ           int
	BSubR, BSubC           int

	CI, CJ, CR, CC int // target view inside my local C block

	KIdx  int  // k-piece index, for ordering diagnostics
	First bool // first accumulation into this C region (beta = 0)
}

// shared reports whether the task needs no fetch at all.
func (t *Task) shared() bool { return t.ADirect && t.BDirect }

// piece is a contiguous range [Lo, Lo+N) of a global dimension together
// with the index of the partition chunk owning it in the source matrix.
type piece struct {
	Lo, N  int
	OwnIdx int
}

// singlePiece wraps a full chunk as the only piece.
func singlePiece(ch grid.Chunk, ownIdx int) []piece {
	return []piece{{Lo: ch.Lo, N: ch.N, OwnIdx: ownIdx}}
}

// splitPieces subdivides overlaps longer than maxK into near-equal parts
// no longer than maxK, preserving owner indices and order.
func splitPieces(pieces []grid.Overlap, maxK int) []grid.Overlap {
	out := make([]grid.Overlap, 0, len(pieces))
	for _, p := range pieces {
		if p.N <= maxK {
			out = append(out, p)
			continue
		}
		parts := (p.N + maxK - 1) / maxK
		for _, ch := range grid.BlockPartition(p.N, parts) {
			if ch.N == 0 {
				continue
			}
			out = append(out, grid.Overlap{AIdx: p.AIdx, BIdx: p.BIdx, Lo: p.Lo + ch.Lo, N: ch.N})
		}
	}
	return out
}

// overlapPieces restricts the intersection of two partitions of the same
// dimension to the ranges inside chunk `want` of partition a, returning
// pieces tagged with partition b's owning index.
func overlapPieces(a, b []grid.Chunk, want int) []piece {
	var out []piece
	for _, ov := range grid.Intersect(a, b) {
		if ov.AIdx == want {
			out = append(out, piece{Lo: ov.Lo, N: ov.N, OwnIdx: ov.BIdx})
		}
	}
	return out
}

// Plan builds the ordered task list for `me` (a rank) on grid g. It is a
// pure function of the topology so tests can exercise ordering and coverage
// without an engine.
func Plan(topo rt.Topology, me int, g *grid.Grid, d Dims, opts Options) []Task {
	da, db, dc := Dists(g, d, opts.Case)
	myRow, myCol := g.Coords(me)
	mLoc := dc.RowChunks[myRow].N
	nLoc := dc.ColChunks[myCol].N
	if mLoc == 0 || nLoc == 0 {
		return nil
	}

	// m pieces: which A blocks cover my C rows.
	var mPieces []piece
	if !opts.Case.TransA() {
		// A rows are partitioned exactly like C rows; one piece, owner row
		// = my row.
		mPieces = singlePiece(dc.RowChunks[myRow], myRow)
	} else {
		// A is K x M with M split over Q columns; intersect with my C-row
		// chunk (P-partition of M).
		mPieces = overlapPieces(dc.RowChunks, da.ColChunks, myRow)
	}
	// n pieces: which B blocks cover my C columns.
	var nPieces []piece
	if !opts.Case.TransB() {
		nPieces = singlePiece(dc.ColChunks[myCol], myCol)
	} else {
		nPieces = overlapPieces(dc.ColChunks, db.RowChunks, myCol)
	}
	// k pieces: intersection of A's and B's k-partitions.
	kChunksA := da.ColChunks
	if opts.Case.TransA() {
		kChunksA = da.RowChunks
	}
	kChunksB := db.RowChunks
	if opts.Case.TransB() {
		kChunksB = db.ColChunks
	}
	kPieces := grid.Intersect(kChunksA, kChunksB)
	if opts.MaxTaskK > 0 {
		kPieces = splitPieces(kPieces, opts.MaxTaskK)
	}

	canDirect := func(owner int) bool {
		if owner == me {
			return true
		}
		return topo.SameDomain(me, owner) && opts.Flavor == FlavorDirect
	}

	var tasks []Task
	for _, mp := range mPieces {
		for ki, kp := range kPieces {
			for _, np := range nPieces {
				t := Task{KIdx: ki}
				// Resolve the A block and sub-view.
				if !opts.Case.TransA() {
					// Block (myRow, kp.AIdx): mLoc x kChunk.
					t.AOwner = g.Rank(myRow, kp.AIdx)
					t.ABlockRows, t.ABlockCols = da.BlockShape(myRow, kp.AIdx)
					t.ASubI = 0
					t.ASubJ = kp.Lo - kChunksA[kp.AIdx].Lo
					t.ASubR, t.ASubC = mLoc, kp.N
				} else {
					// Block (kp.AIdx, mp.OwnIdx): kChunk x mChunk, transposed.
					t.AOwner = g.Rank(kp.AIdx, mp.OwnIdx)
					t.ABlockRows, t.ABlockCols = da.BlockShape(kp.AIdx, mp.OwnIdx)
					t.ASubI = kp.Lo - kChunksA[kp.AIdx].Lo
					t.ASubJ = mp.Lo - da.ColChunks[mp.OwnIdx].Lo
					t.ASubR, t.ASubC = kp.N, mp.N
				}
				// Resolve the B block and sub-view.
				if !opts.Case.TransB() {
					t.BOwner = g.Rank(kp.BIdx, myCol)
					t.BBlockRows, t.BBlockCols = db.BlockShape(kp.BIdx, myCol)
					t.BSubI = kp.Lo - kChunksB[kp.BIdx].Lo
					t.BSubJ = 0
					t.BSubR, t.BSubC = kp.N, nLoc
				} else {
					t.BOwner = g.Rank(np.OwnIdx, kp.BIdx)
					t.BBlockRows, t.BBlockCols = db.BlockShape(np.OwnIdx, kp.BIdx)
					t.BSubI = np.Lo - db.RowChunks[np.OwnIdx].Lo
					t.BSubJ = kp.Lo - kChunksB[kp.BIdx].Lo
					t.BSubR, t.BSubC = np.N, kp.N
				}
				t.ADirect = canDirect(t.AOwner)
				t.BDirect = canDirect(t.BOwner)
				// C view.
				t.CI = mp.Lo - dc.RowChunks[myRow].Lo
				t.CJ = np.Lo - dc.ColChunks[myCol].Lo
				t.CR, t.CC = mp.N, np.N
				tasks = append(tasks, t)
			}
		}
	}
	orderTasks(tasks, topo, me, g, len(kPieces), opts)
	markFirst(tasks)
	return tasks
}

// orderTasks applies the paper's two reorderings: shared-memory tasks first
// (step 2 of §3.1), and diagonal-shift rotation of the remote tasks
// (Figure 4) so processes sharing a node start their fetch sequences on
// different remote nodes. Both are stable so A-block reuse adjacency from
// the construction order survives.
func orderTasks(tasks []Task, topo rt.Topology, me int, g *grid.Grid, nK int, opts Options) {
	if len(tasks) == 0 {
		return
	}
	myRow, myCol := g.Coords(me)
	rot := 0
	if !opts.NoDiagonalShift && nK > 0 {
		// Start each process's fetch sequence on its own diagonal
		// (paper Figure 4: P_i0 starts at chunk i). Rotating by row+column
		// staggers both node-mates (same grid column) and row-mates, so at
		// any pipeline step each owner serves ~one requester instead of a
		// whole grid row hammering one node.
		rot = (myRow + myCol) % nK
	}
	key := func(t *Task) [2]int {
		sharedKey := 1
		if t.shared() && !opts.NoSharedFirst {
			sharedKey = 0
		}
		return [2]int{sharedKey, (t.KIdx - rot + nK) % nK}
	}
	// Stable insertion-free sort: build index order then permute.
	stableSortTasks(tasks, func(a, b *Task) bool {
		ka, kb := key(a), key(b)
		if ka[0] != kb[0] {
			return ka[0] < kb[0]
		}
		return ka[1] < kb[1]
	})
}

// stableSortTasks sorts in place with a stable merge sort (the slices are
// short — at most a few hundred tasks).
func stableSortTasks(ts []Task, less func(a, b *Task) bool) {
	if len(ts) < 2 {
		return
	}
	tmp := make([]Task, len(ts))
	var merge func(lo, hi int)
	merge = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		merge(lo, mid)
		merge(mid, hi)
		i, j := lo, mid
		for k := lo; k < hi; k++ {
			if i < mid && (j >= hi || !less(&ts[j], &ts[i])) {
				tmp[k] = ts[i]
				i++
			} else {
				tmp[k] = ts[j]
				j++
			}
		}
		copy(ts[lo:hi], tmp[lo:hi])
	}
	merge(0, len(ts))
}

// markFirst sets Task.First on the first task (in final order) touching
// each distinct C region, which the executor maps to beta=0.
func markFirst(tasks []Task) {
	type region struct{ i, j, r, c int }
	seen := make(map[region]bool, len(tasks))
	for idx := range tasks {
		t := &tasks[idx]
		reg := region{t.CI, t.CJ, t.CR, t.CC}
		if !seen[reg] {
			seen[reg] = true
			t.First = true
		}
	}
}
