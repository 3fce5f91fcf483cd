package server

// Recovery-layer tests: the end-to-end chaos gate (crash + silent compute
// corruption against a live server, every accepted request bit-correct),
// the retryability classification, the jobRecovery salvage reconciliation,
// and ABFT verification under a full backlog.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/ipcrt"
	"srumma/internal/sched"
)

// TestChaosServe is the end-to-end chaos gate: a server with the fault
// injector planted under every engine job — one mid-compute rank crash,
// silent C-block corruption — must return a bit-correct
// product for every accepted request, and the recovery counters must show
// the machinery actually fired (handler retries, ABFT detections that were
// recomputed). A fault-free twin provides the bit-exact reference.
func TestChaosServe(t *testing.T) {
	// Seed 1 plants the compute crash at rank 3's gemm op 4. With MaxTaskK 8
	// every rank owns 8 tasks in the 64-K first request, so the crash fires
	// mid-request-0 with completed, salvageable tasks behind it — the gate
	// deterministically exercises RESUME, not just restart.
	plan, err := faults.NewPlan(faults.Config{
		Seed:               1,
		ComputeCrash:       true,
		ComputeCrashOpSpan: 6,
		BadBlockRate:       0.05,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulty := newTestServer(t, Config{
		NProcs:       4,
		SmallMNK:     1, // everything on the distributed engine
		MaxTaskK:     8,
		ABFT:         true,
		FaultPlan:    plan,
		RetryBudget:  3,
		RetryBackoff: 2 * time.Millisecond,
	})
	// A twin with the same plan pins seeded determinism: the whole recovery
	// story — which request crashes, what resumes, what ABFT catches — must
	// replay identically, or chaos failures cannot be reproduced at a desk.
	twin := newTestServer(t, Config{
		NProcs:       4,
		SmallMNK:     1,
		MaxTaskK:     8,
		ABFT:         true,
		FaultPlan:    plan,
		RetryBudget:  3,
		RetryBackoff: 2 * time.Millisecond,
	})
	clean := newTestServer(t, Config{NProcs: 4, SmallMNK: 1, MaxTaskK: 8})

	const requests = 10
	for i := 0; i < requests; i++ {
		n := 64 - 8*(i%3) // 64 first (the crash request), then 56, 48
		req := randReq(n, n, n, uint64(900+i))
		req.ID = fmt.Sprintf("chaos-%d", i)

		var want MultiplyResponse
		code, _ := post(t, clean, req, &want)
		if code != http.StatusOK {
			t.Fatalf("request %d: clean twin status %d", i, code)
		}
		var got MultiplyResponse
		code, w := post(t, faulty, req, &got)
		if code != http.StatusOK {
			t.Fatalf("request %d: chaos server status %d: %s", i, code, w.Body.String())
		}
		for e := range got.C {
			if got.C[e] != want.C[e] {
				t.Fatalf("request %d: C[%d] = %v under chaos, want %v (bit-exact)", i, e, got.C[e], want.C[e])
			}
		}
		var got2 MultiplyResponse
		if code, _ := post(t, twin, req, &got2); code != http.StatusOK {
			t.Fatalf("request %d: twin status %d", i, code)
		}
		for e := range got.C {
			if got2.C[e] != got.C[e] {
				t.Fatalf("request %d: twin C[%d] diverged under the same seed", i, e)
			}
		}
	}

	rec := faulty.Metrics().Recovery
	// ResumedTasks is the one timing-dependent field: how much peer ranks
	// had completed when the crash abort unwound them varies run to run.
	// Everything else — which request failed, that it resumed rather than
	// restarted, every ABFT detection — must replay exactly.
	rec2 := twin.Metrics().Recovery
	rec2.ResumedTasks, rec.ResumedTasks = 0, 0
	if rec2 != rec {
		t.Errorf("same seed, different recovery story:\n first %+v\n  twin %+v", rec, rec2)
	}
	rec = faulty.Metrics().Recovery
	if rec.Retries == 0 {
		t.Error("no handler retries recorded; the planted compute crash never fired")
	}
	if rec.ResumedJobs == 0 {
		t.Errorf("no resumed jobs (retries=%d restarted=%d): retries are not salvaging completed work", rec.Retries, rec.RestartedJobs)
	}
	if rec.ResumedTasks == 0 {
		t.Error("resumed jobs skipped zero tasks; the ledger is not carrying completions across attempts")
	}
	if rec.ABFTDetected == 0 {
		t.Error("ABFT detected no corrupted blocks despite BadBlockRate > 0")
	}
	if rec.ABFTRecomputed == 0 {
		t.Error("ABFT recomputed no blocks; detections did not recover")
	}
	t.Logf("chaos recovery: %+v", rec)
}

// TestRetryableRunError pins the retry classification: recoverable engine
// and executor failures retry; cancellations and drain are final.
func TestRetryableRunError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"cancelled", core.ErrCancelled, false},
		{"ctx-cancel", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"sched-cancel", sched.ErrCancelled, false},
		{"drain", sched.ErrClosed, false},
		{"rank-panic", &armci.RankPanicError{Rank: 2, Cause: "boom"}, true},
		{"wrapped-rank-panic", fmt.Errorf("run: %w", &armci.RankPanicError{Rank: 0, Cause: "x"}), true},
		{"watchdog", &armci.WatchdogError{Leaked: []int{1}}, true},
		{"small-panic", fmt.Errorf("%w: boom", errSmallPanic), true},
		{"abft", fmt.Errorf("rank 3: %w", core.ErrABFT), true},
		{"plain", errors.New("some bug"), false},
	}
	for _, tc := range cases {
		if got := retryableRunError(tc.err); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestJobRecoverySalvage pins the salvage reconciliation of the one
// recovery type: only ranks that salvaged resume, take consumes — a block
// can never be paired with marks newer than itself — and a later failure's
// salvage replaces, never merges with, an earlier one.
func TestJobRecoverySalvage(t *testing.T) {
	jr := &jobRecovery{}
	// Rank 0 panicked with tasks 0 and 2 of 4 done; rank 1 exited cleanly
	// (a result, but no salvage); rank 2's worker died (no result at all).
	jr.store([]*ipcrt.RankResult{
		{Rank: 0, Salvaged: true, C: []float64{1, 2, 3}, LedgerBits: []uint64{0b101}, LedgerTasks: 4},
		{Rank: 1, C: []float64{9, 9, 9}},
		nil,
	})
	if got := jr.resumedTasks(); got != 2 {
		t.Fatalf("resumedTasks = %d, want 2", got)
	}
	prior := jr.take()
	if len(prior) != 1 || len(prior[0].C) != 3 || prior[0].Tasks != 4 || prior[0].Bits[0] != 0b101 {
		t.Fatalf("take = %+v, want rank 0's block, bits and task count", prior)
	}
	if jr.take() != nil || jr.resumedTasks() != 0 {
		t.Fatal("take did not consume the salvage")
	}
	// The next failure salvages only rank 3: rank 0's earlier block is gone
	// (consumed, and not re-salvaged), so it restarts.
	jr.store([]*ipcrt.RankResult{{Rank: 0}, {Rank: 3, Salvaged: true, C: []float64{4}, LedgerBits: []uint64{0b1}, LedgerTasks: 2}})
	if got := jr.resumedTasks(); got != 1 {
		t.Fatalf("second failure: resumedTasks = %d, want 1", got)
	}
	if prior := jr.take(); len(prior) != 1 || prior[3].Tasks != 2 {
		t.Fatalf("second failure: take = %+v, want only rank 3", prior)
	}
}

// TestABFTHoldsUnderBacklog: ABFT verifies every distributed block at every
// queue depth. A seeded plan corrupts computed blocks while a pinned team
// holds a backlog filled to the queue cap — four small requests, then
// distributed ones until 19 wait behind the blocker. Every response must
// bit-equal a clean twin's, and the detections show the plan fired. The
// distributed operands lie in [1, 3): every element of a C view is then
// within a small factor of the view's mean, so a flipped exponent bit always
// moves the view's sum past ABFT's relative tolerance (with signed operands
// an element near zero can change by less than the tolerance and go unseen).
func TestABFTHoldsUnderBacklog(t *testing.T) {
	plan, err := faults.NewPlan(faults.Config{Seed: 3, BadBlockRate: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NProcs: 4, MaxTaskK: 8, SmallMNK: 16 * 16 * 16}
	clean := newTestServer(t, cfg)
	cfg.Teams, cfg.QueueCap, cfg.ABFT, cfg.FaultPlan = 1, 20, true, plan
	s := newTestServer(t, cfg)
	release, entered := blockOn(s, "blocker")
	defer release()

	positive := func(r MultiplyRequest) MultiplyRequest {
		for _, v := range [][]float64{r.A, r.B} {
			for e := range v {
				v[e] += 2
			}
		}
		return r
	}
	reqs := []MultiplyRequest{positive(blockerReq())}
	chans := []<-chan struct {
		code int
		resp MultiplyResponse
	}{postAsync(t, s, reqs[0])}
	<-entered
	const smalls, queued = 4, 19
	for i := 0; i < queued; i++ {
		req := randReq(16, 16, 16, uint64(10+i))
		if i >= smalls {
			req = positive(randReq(64, 64, 64, uint64(20+i)))
		}
		req.ID = fmt.Sprintf("q-%d", i)
		reqs = append(reqs, req)
		chans = append(chans, postAsync(t, s, req))
		waitQueued(t, s, i+1)
	}
	release()
	for i, ch := range chans {
		out := <-ch
		if out.code != http.StatusOK {
			t.Fatalf("request %s: status %d", reqs[i].ID, out.code)
		}
		var want MultiplyResponse
		if code, _ := post(t, clean, reqs[i], &want); code != http.StatusOK {
			t.Fatalf("request %s: clean twin status %d", reqs[i].ID, code)
		}
		for e := range want.C {
			if out.resp.C[e] != want.C[e] {
				t.Fatalf("request %s: C[%d] = %v, clean twin %v — a corrupted block shipped", reqs[i].ID, e, out.resp.C[e], want.C[e])
			}
		}
	}
	m := s.Metrics()
	if m.Recovery.ABFTDetected == 0 {
		t.Fatal("ABFT detected no corrupted blocks; the plan never fired")
	}
	t.Logf("recovery under backlog: %+v", m.Recovery)
}
