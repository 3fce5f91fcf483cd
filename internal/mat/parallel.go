package mat

// GemmParallel: the second level of intra-rank parallelism. SRUMMA gives
// each rank one block of C; on a multi-core rank the local dgemm itself can
// be split across goroutines. The split is by disjoint macro-stripes of C
// (rows when op(A) is tall, columns when op(B) is wide), so workers share
// only the read-only operands — no locks, no accumulation races, and each
// worker packs into its own pooled panels. Summation order within every C
// element is identical to the serial packed kernel, so parallel and serial
// results agree bit-for-bit.

import (
	"runtime"
	"sync"
)

// parallelMinWork is the flop count below which spawning workers costs more
// than it saves; such calls run serially regardless of the thread count.
const parallelMinWork = 64 * 64 * 64

// GemmParallel computes C = alpha*op(A)*op(B) + beta*C like Gemm, using up
// to `threads` worker goroutines, and never more than GOMAXPROCS: a worker
// without a processor of its own only repeats the B packing and evicts its
// neighbours' panels. threads <= 1, tiny problems, and stripe counts of one
// all degrade to the serial packed kernel.
func GemmParallel(threads int, transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) error {
	m, n, k, err := gemmShape(transA, transB, a, b, c)
	if err != nil {
		return err
	}
	store := stores(alpha, beta, m, n, k)
	if !store {
		scaleC(beta, c)
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return nil
	}
	mr, nr := active.mr, active.nr
	threads = min(threads, runtime.GOMAXPROCS(0))
	if threads > 1 && m >= n {
		threads = min(threads, (m+mr-1)/mr)
	} else if threads > 1 {
		threads = min(threads, (n+nr-1)/nr)
	}
	if threads <= 1 || m*n*k < parallelMinWork {
		gemmPacked(transA, transB, alpha, a, b, c, 0, m, 0, n, k, store)
		return nil
	}

	var wg sync.WaitGroup
	if m >= n {
		// Stripe rows of C, each stripe a multiple of mr so no worker ends
		// on a partial micro-panel another would also touch.
		chunk := ((m+threads-1)/threads + mr - 1) / mr * mr
		for w := 0; w < threads; w++ {
			lo := w * chunk
			if lo >= m {
				break
			}
			rows := min(chunk, m-lo)
			wg.Add(1)
			go func(lo, rows int) {
				defer wg.Done()
				gemmPacked(transA, transB, alpha, a, b, c, lo, rows, 0, n, k, store)
			}(lo, rows)
		}
	} else {
		// Wide C: stripe columns instead, multiples of nr.
		chunk := ((n+threads-1)/threads + nr - 1) / nr * nr
		for w := 0; w < threads; w++ {
			lo := w * chunk
			if lo >= n {
				break
			}
			cols := min(chunk, n-lo)
			wg.Add(1)
			go func(lo, cols int) {
				defer wg.Done()
				gemmPacked(transA, transB, alpha, a, b, c, 0, m, lo, cols, k, store)
			}(lo, cols)
		}
	}
	wg.Wait()
	return nil
}
