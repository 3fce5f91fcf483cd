package server

// Block-level job recovery for the distributed routes. One jobRecovery
// rides along with each distributed request across its retry attempts,
// whichever runner executes them (an in-process team or the cluster pool):
// it holds what the ranks of a failed attempt salvaged on their panic
// unwind — partial C block, ledger completion bitset, task count. A
// retried job hands the salvage back to the rank body (ipcrt.JobSpec.Prior),
// which reloads the block, restores the ledger and re-executes only the
// tasks absent from it — bit-identical to an uninterrupted run. Ranks with
// no salvage (they exited the body cleanly before a peer's failure aborted
// the run, or returned an error — see job.Run for why errors never salvage)
// restart from the request inputs with an empty ledger.

import (
	"context"
	"errors"
	mathbits "math/bits"
	"sync"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/ipcrt"
	"srumma/internal/rt"
	"srumma/internal/sched"
)

// jobRecovery is one distributed request's recovery state, shared by every
// attempt.
type jobRecovery struct {
	abft bool // this request verifies blocks (may be shed by brownout)

	mu    sync.Mutex
	ranks map[int]ipcrt.RankPrior
}

func (s *Server) newJobRecovery(abft bool) *jobRecovery {
	return &jobRecovery{abft: abft}
}

// store replaces the salvage with what a failed attempt's results carry.
func (jr *jobRecovery) store(results []*ipcrt.RankResult) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	jr.ranks = nil
	for _, r := range results {
		if r == nil || !r.Salvaged {
			continue
		}
		if jr.ranks == nil {
			jr.ranks = make(map[int]ipcrt.RankPrior)
		}
		jr.ranks[r.Rank] = ipcrt.RankPrior{C: r.C, Bits: r.LedgerBits, Tasks: r.LedgerTasks}
	}
}

// resumedTasks counts the completed tasks the next attempt will skip — the
// resumed-work figure the recovery metrics report; 0 for the nil recovery
// state of a small product.
func (jr *jobRecovery) resumedTasks() int {
	if jr == nil {
		return 0
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	n := 0
	for _, p := range jr.ranks {
		for _, w := range p.Bits {
			n += mathbits.OnesCount64(w)
		}
	}
	return n
}

// take consumes the salvage for one attempt. Consuming on read is what
// keeps blocks and marks in lockstep across multiple retries: a rank that
// exits cleanly while the job fails again has no entry in the next store,
// so its (by then stale) block can never be paired with newer marks — it
// restarts.
func (jr *jobRecovery) take() map[int]ipcrt.RankPrior {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	ranks := jr.ranks
	jr.ranks = nil
	return ranks
}

// retryableRunError classifies a failed run: rank panics (injected crashes
// included), a small product's executor panic, exhausted ABFT recomputes,
// rank death or deadlock (rt.ErrRankExited / rt.ErrRankDeadlocked — on the
// cluster route surfaced after the pool replaced the node; a leaked-rank
// watchdog report is the latter) and worker-side job-body failures are
// transient-with-recovery; cancellations, deadlines and drain are final.
func retryableRunError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, sched.ErrCancelled) ||
		errors.Is(err, sched.ErrClosed) {
		return false
	}
	var rpe *armci.RankPanicError
	var rje *ipcrt.RankJobError
	return errors.As(err, &rpe) || errors.Is(err, errSmallPanic) || errors.Is(err, core.ErrABFT) ||
		errors.Is(err, rt.ErrRankExited) || errors.Is(err, rt.ErrRankDeadlocked) ||
		errors.As(err, &rje)
}

// retryBackoff is the wait before retry attempt `attempt` (0-based):
// base * 2^attempt.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	return base << uint(attempt)
}

// sleepCtx sleeps d unless ctx is done first; reports whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
