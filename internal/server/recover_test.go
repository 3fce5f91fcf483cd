package server

// Recovery-layer tests: the end-to-end chaos gate (crash + silent compute
// corruption against a live server, every accepted request bit-correct),
// the circuit breaker state machine under a fake clock, the retryability
// classification, the jobRecovery salvage reconciliation, and the brownout
// shed counter.

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
	"srumma/internal/obs"
	"srumma/internal/sched"
)

// TestChaosServe is the end-to-end chaos gate: a server with the fault
// injector planted under every engine job — one mid-compute rank crash,
// silent C-block corruption, transport drops — must return a bit-correct
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
		DropRate:           0.02,
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

// TestBreakerStateMachine drives the circuit breaker through
// closed -> open -> half-open -> closed and the failed-probe reopen, under
// an injectable clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker("test", 0.5, 4, time.Second, obs.NewRegistry(), clock)

	if ok, _ := b.allow(); !ok {
		t.Fatal("fresh breaker must allow")
	}
	// Below minSamples (2 of window 4) one failure must not trip it.
	b.record(false)
	if ok, _ := b.allow(); !ok {
		t.Fatal("breaker tripped below minSamples")
	}
	b.record(false) // 2/2 failures >= 0.5: trips
	if ok, wait := b.allow(); ok {
		t.Fatal("breaker did not open at the failure threshold")
	} else if wait <= 0 || wait > time.Second {
		t.Fatalf("open breaker advertised cooldown %v", wait)
	}
	if got := b.snapshot(); got.State != "open" || got.Opened != 1 || got.Shed != 1 {
		t.Fatalf("snapshot after trip = %+v", got)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("breaker did not admit a probe after cooldown")
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	b.record(true) // probe succeeds: closed, window forgotten
	if got := b.snapshot(); got.State != "closed" {
		t.Fatalf("state after successful probe = %q", got.State)
	}
	b.record(false)
	if ok, _ := b.allow(); !ok {
		t.Fatal("breaker reopened on a forgotten window")
	}

	// Trip again; this time the probe fails and the breaker reopens.
	b.record(false)
	if ok, _ := b.allow(); ok {
		t.Fatal("breaker did not reopen")
	}
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("no probe after second cooldown")
	}
	b.record(false)
	if got := b.snapshot(); got.State != "open" {
		t.Fatalf("state after failed probe = %q", got.State)
	}
}

// TestBreakerServes503 wires the breaker into the serving path: a route
// forced open by consecutive failures sheds with 503 + Retry-After.
func TestBreakerServes503(t *testing.T) {
	s := newTestServer(t, Config{
		NProcs:           2,
		BreakerThreshold: 0.5,
		BreakerWindow:    4, // minSamples 2: trips on the second failure
		BreakerCooldown:  time.Minute,
		RetryBudget:      -1, // isolate the breaker from the retry machinery
	})
	// Force failures through the small route by making its dispatch panic.
	s.setBatchHook(func(tk *sched.Task) { panic("chaos: wedged tier") })
	req := randReq(8, 8, 8, 1)
	for i := 0; i < 2; i++ {
		if code, _ := post(t, s, req, nil); code != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, code)
		}
	}
	code, w := post(t, s, req, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after trip, want 503 (body %s)", code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s.Metrics().Breakers[routeSmall].State != "open" {
		t.Fatalf("breaker state = %+v, want open", s.Metrics().Breakers)
	}
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

// TestBrownoutShedsOptionalWork builds a backlog past the brownout
// threshold. Queued small requests have no verification to shed, so none is
// counted as browned out, and they stay batched: the four go out in one
// dispatch. Distributed requests admitted behind them are counted (served
// without ABFT) and still succeed.
func TestBrownoutShedsOptionalWork(t *testing.T) {
	s := newTestServer(t, Config{
		NProcs:     2,
		Teams:      1,
		QueueCap:   8,
		BrownoutAt: 0.25, // 2 queued trips it
		ABFT:       true,
	})
	release, entered := blockOn(s, "blocker")
	defer release()
	blocker := blockerReq()
	blockerCh := postAsync(t, s, blocker)
	<-entered

	var chans []<-chan struct {
		code int
		resp MultiplyResponse
	}
	for i := 0; i < 4; i++ {
		req := randReq(16, 16, 16, uint64(10+i))
		req.ID = fmt.Sprintf("bg-%d", i)
		chans = append(chans, postAsync(t, s, req))
		waitQueued(t, s, i+1)
	}
	if got := s.Metrics().Recovery.BrownoutRequests; got != 0 {
		t.Fatalf("%d small requests counted as browned out; they have no verification to shed", got)
	}
	const dist = 2
	for i := 0; i < dist; i++ {
		req := randReq(129, 129, 129, uint64(20+i))
		req.ID = fmt.Sprintf("dist-%d", i)
		chans = append(chans, postAsync(t, s, req))
		waitQueued(t, s, 5+i)
	}
	release()
	for i, ch := range chans {
		if out := <-ch; out.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, out.code)
		}
	}
	if out := <-blockerCh; out.code != http.StatusOK {
		t.Fatalf("blocker status %d", out.code)
	}
	m := s.Metrics()
	if got := m.Recovery.BrownoutRequests; got != dist {
		t.Fatalf("%d requests counted as browned out, want the %d distributed ones admitted past the threshold", got, dist)
	}
	if m.Sched.MaxBatch != 4 {
		t.Fatalf("largest dispatch %d, want the whole backlog of 4 in one", m.Sched.MaxBatch)
	}
}
