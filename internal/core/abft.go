package core

// Algorithm-based fault tolerance (ABFT) for the task executor, after
// Huang & Abraham: a block product's element sum is predicted from operand
// row/column sums — ones^T (op(A) op(B)) ones = colsums(op(A)) · rowsums(op(B))
// — so each produced C view can be verified in O(operand + view) extra work
// against an O(m·n·k) multiply. Transport checksums (internal/faults)
// cannot see a block the KERNEL corrupted: the payload that landed was
// correct, the output is not. ABFT closes exactly that hole: a failed check
// marks the task dirty in the ledger, restores the saved C view and
// recomputes, turning silent corruption into a counted, recovered event.
//
// The check needs real element data, so it requires a data-carrying engine
// (internal/armci); the size-only sim engine cannot support it. The
// tolerance is relative: the deviation must exceed ABFTTol times the
// accumulated magnitude of the inputs, which sits orders of magnitude above
// round-off for any admissible k and below any corruption that could
// matter numerically.

import (
	"fmt"

	"srumma/internal/rt"
)

// defaultABFTTol is the relative tolerance when Options.ABFTTol is unset:
// comfortably above float64 summation noise (~k·eps), far below a
// significant bit flip.
const defaultABFTTol = 1e-6

// abftMaxRedo bounds recomputation of one persistently failing block
// before the executor gives up loudly.
const abftMaxRedo = 3

// ErrABFT is wrapped by the executor error returned when a block keeps
// failing verification after abftMaxRedo recomputations — corruption that
// recomputing cannot clear (deterministic kernel fault, poisoned operand).
var ErrABFT = fmt.Errorf("core: abft verification failed after recompute")

// abftState is one executor run's verification scratch: the saved C view
// (for restore-and-recompute) and the k-length operand sum vectors. One
// instance per rank per multiply, reused across tasks.
type abftState struct {
	c    rt.Ctx
	tol  float64
	save []float64 // pre-gemm C view, packed row-major
	colA []float64 // colsums of op(A), length k
	absA []float64 // colsums of |op(A)|
	rowB []float64 // rowsums of op(B) (TT/NT cases accumulate per column)
	absB []float64
	s0   float64 // sum of the saved C view
	abs0 float64 // sum of |saved C view|
}

func newABFTState(c rt.Ctx, tol float64) *abftState {
	if tol <= 0 {
		tol = defaultABFTTol
	}
	return &abftState{c: c, tol: tol}
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// begin snapshots the C view before the gemm: the saved copy both prices
// the expected sum (beta * s0 contributes to the post-gemm sum) and is the
// restore point for recomputation.
func (a *abftState) begin(cMat rt.Mat) {
	n := cMat.Rows * cMat.Cols
	a.save = grow(a.save, n)
	a.s0, a.abs0 = 0, 0
	for i := 0; i < cMat.Rows; i++ {
		row := a.c.ReadBuf(cMat.Buf, cMat.Off+i*cMat.LD, cMat.Cols)
		copy(a.save[i*cMat.Cols:], row)
		for _, v := range row {
			a.s0 += v
			a.abs0 += abs(v)
		}
	}
}

// predict computes colsums(op(A)) · rowsums(op(B)) and its absolute-value
// counterpart (the magnitude scale for the tolerance).
func (a *abftState) predict(aMat, bMat rt.Mat) (pred, absPred float64) {
	k := aMat.Cols
	if aMat.Trans {
		k = aMat.Rows
	}
	a.colA = grow(a.colA, k)
	a.absA = grow(a.absA, k)
	for l := range a.colA {
		a.colA[l], a.absA[l] = 0, 0
	}
	if aMat.Trans {
		// op(A)[i,l] = stored[l,i]: column l of op(A) is stored row l.
		for l := 0; l < aMat.Rows; l++ {
			row := a.c.ReadBuf(aMat.Buf, aMat.Off+l*aMat.LD, aMat.Cols)
			for _, v := range row {
				a.colA[l] += v
				a.absA[l] += abs(v)
			}
		}
	} else {
		for i := 0; i < aMat.Rows; i++ {
			row := a.c.ReadBuf(aMat.Buf, aMat.Off+i*aMat.LD, aMat.Cols)
			for l, v := range row {
				a.colA[l] += v
				a.absA[l] += abs(v)
			}
		}
	}
	if bMat.Trans {
		// op(B)[l,j] = stored[j,l]: rowsum l of op(B) is stored column l.
		a.rowB = grow(a.rowB, k)
		a.absB = grow(a.absB, k)
		for l := range a.rowB {
			a.rowB[l], a.absB[l] = 0, 0
		}
		for j := 0; j < bMat.Rows; j++ {
			row := a.c.ReadBuf(bMat.Buf, bMat.Off+j*bMat.LD, bMat.Cols)
			for l, v := range row {
				a.rowB[l] += v
				a.absB[l] += abs(v)
			}
		}
		for l := 0; l < k; l++ {
			pred += a.colA[l] * a.rowB[l]
			absPred += a.absA[l] * a.absB[l]
		}
	} else {
		for l := 0; l < bMat.Rows; l++ {
			row := a.c.ReadBuf(bMat.Buf, bMat.Off+l*bMat.LD, bMat.Cols)
			sum, asum := 0.0, 0.0
			for _, v := range row {
				sum += v
				asum += abs(v)
			}
			pred += a.colA[l] * sum
			absPred += a.absA[l] * asum
		}
	}
	return pred, absPred
}

// ok verifies the post-gemm C view sum against the prediction within the
// relative tolerance.
func (a *abftState) ok(alpha, taskBeta, pred, absPred float64, cMat rt.Mat) bool {
	var s1 float64
	for i := 0; i < cMat.Rows; i++ {
		row := a.c.ReadBuf(cMat.Buf, cMat.Off+i*cMat.LD, cMat.Cols)
		for _, v := range row {
			s1 += v
		}
	}
	want := alpha*pred + taskBeta*a.s0
	scale := abs(alpha)*absPred + abs(taskBeta)*a.abs0
	if scale < 1 {
		scale = 1
	}
	return abs(s1-want) <= a.tol*scale
}

// restore rewrites the saved pre-gemm C view, the precondition for a clean
// recompute.
func (a *abftState) restore(cMat rt.Mat) {
	for i := 0; i < cMat.Rows; i++ {
		a.c.WriteBuf(cMat.Buf, cMat.Off+i*cMat.LD, a.save[i*cMat.Cols:(i+1)*cMat.Cols])
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// gemmVerified is the executor's verified-gemm step: plain
// gemm when verification is off (ab == nil — no extra work, no
// allocations), otherwise snapshot → predict → gemm → verify, with
// restore-and-recompute on mismatch. Detections and recomputes land in the
// rank's Stats meters.
func gemmVerified(c rt.Ctx, ab *abftState, alpha float64, aMat, bMat rt.Mat, taskBeta float64, cMat rt.Mat) error {
	if ab == nil {
		c.Gemm(alpha, aMat, bMat, taskBeta, cMat)
		return nil
	}
	ab.begin(cMat)
	pred, absPred := ab.predict(aMat, bMat)
	c.Gemm(alpha, aMat, bMat, taskBeta, cMat)
	for try := 0; !ab.ok(alpha, taskBeta, pred, absPred, cMat); try++ {
		c.Stats().ABFTDetected++
		if try == abftMaxRedo {
			return fmt.Errorf("%w: rank %d C view (%d,%d) %dx%d", ErrABFT, c.Rank(), cMat.Off, cMat.LD, cMat.Rows, cMat.Cols)
		}
		ab.restore(cMat)
		c.Gemm(alpha, aMat, bMat, taskBeta, cMat)
		c.Stats().ABFTRecomputed++
	}
	return nil
}
