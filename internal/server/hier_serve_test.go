package server

// Serving-layer tests for hierarchical routing mode: the two-level
// multiply behind /v1/multiply must be bit-identical to the flat route,
// and a crashed rank — which takes its whole SUMMA group's progress with
// it — must fold into the same retry/ledger-resume machinery the flat
// path uses (under hier the static inner executor runs; failure handling
// is the job level's responsibility).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/hier"
)

// TestHierServeBitIdentical pins the serving-layer half of the
// hierarchical gate: a hier-mode server and a flat server answer the same
// requests with bit-identical products, across sizes that exercise both
// tie and strict-staging group carvings.
func TestHierServeBitIdentical(t *testing.T) {
	flat := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1, MaxTaskK: 16})
	hierS := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1, MaxTaskK: 16, Hier: true})

	for i, dims := range [][3]int{{64, 64, 64}, {72, 60, 84}, {48, 96, 32}} {
		req := randReq(dims[0], dims[1], dims[2], uint64(700+i))
		req.ID = fmt.Sprintf("hier-bit-%d", i)

		var want MultiplyResponse
		if code, w := post(t, flat, req, &want); code != http.StatusOK {
			t.Fatalf("request %d: flat status %d: %s", i, code, w.Body.String())
		}
		var got MultiplyResponse
		if code, w := post(t, hierS, req, &got); code != http.StatusOK {
			t.Fatalf("request %d: hier status %d: %s", i, code, w.Body.String())
		}
		if len(got.C) != len(want.C) {
			t.Fatalf("request %d: hier returned %d elements, flat %d", i, len(got.C), len(want.C))
		}
		for e := range got.C {
			if got.C[e] != want.C[e] {
				t.Fatalf("request %d: C[%d] = %v on the hier route, want %v (bit-exact)", i, e, got.C[e], want.C[e])
			}
		}
	}

	m := hierS.Metrics()
	if m.HierGroups != 2 || m.HierGroupShape == "" {
		t.Errorf("hier metrics: groups=%d shape=%q, want 2 groups with a shape", m.HierGroups, m.HierGroupShape)
	}
	// On 2 nodes x 2 ranks each group is one grid column: no two members
	// want the same remote block, and the operator can see the mode is
	// buying nothing — everything is fetched by its only consumer.
	if m.HierStagedBytes != 0 || m.HierMemberFetchBytes == 0 {
		t.Errorf("no-sharing topology: %d bytes staged, %d member-fetched; want 0 and > 0", m.HierStagedBytes, m.HierMemberFetchBytes)
	}
	if fm := flat.Metrics(); fm.HierStagedBytes != 0 || fm.HierMemberFetchBytes != 0 {
		t.Errorf("flat server counted two-level bytes: %d staged, %d member-fetched", fm.HierStagedBytes, fm.HierMemberFetchBytes)
	}
}

// TestHierServeCountsTheSplit: on a topology whose groups share fetch
// regions (2 nodes x 4 ranks, each group a 2x2 corner of the 2x4 grid) the
// counters report exactly the predicted staged / member-fetched split of
// every request served, on /metrics and on the Prometheus surface.
func TestHierServeCountsTheSplit(t *testing.T) {
	cfg := Config{NProcs: 8, ProcsPerNode: 4, SmallMNK: 1, MaxTaskK: 16, Hier: true}
	s := newTestServer(t, cfg)
	var want hier.Volumes
	for i, mkn := range [][3]int{{64, 64, 64}, {72, 60, 84}} {
		req := randReq(mkn[0], mkn[1], mkn[2], uint64(900+i))
		var got MultiplyResponse
		if code, w := post(t, s, req, &got); code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, w.Body.String())
		}
		v := hier.PredictVolumes(hier.From(s.topo, s.g), core.Dims{M: mkn[0], K: mkn[1], N: mkn[2]},
			hier.Options{Options: core.Options{MaxTaskK: cfg.MaxTaskK}})
		want.Staged += v.Staged
		want.MemberFetch += v.MemberFetch
	}
	m := s.Metrics()
	if want.Staged == 0 || m.HierStagedBytes != uint64(8*want.Staged) || m.HierMemberFetchBytes != uint64(8*want.MemberFetch) {
		t.Errorf("counted %d bytes staged, %d member-fetched; predicted %d and %d",
			m.HierStagedBytes, m.HierMemberFetchBytes, 8*want.Staged, 8*want.MemberFetch)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	for _, line := range []string{
		fmt.Sprintf("hier_staged_bytes %d", 8*want.Staged),
		fmt.Sprintf("hier_member_fetch_bytes %d", 8*want.MemberFetch),
	} {
		if !strings.Contains(rr.Body.String(), line) {
			t.Errorf("prometheus exposition lacks %q", line)
		}
	}
}

// TestHierServeChaosKillGroup is the kill-one-group gate: a planted
// mid-compute rank crash under hierarchical mode takes the rank's whole
// group down with the job, and the serving layer must bring the request
// back through retry + ledger resume — bit-correct against a fault-free
// flat server, with the recovery counters showing a resume actually
// happened.
func TestHierServeChaosKillGroup(t *testing.T) {
	plan, err := faults.NewPlan(faults.Config{
		Seed:               3,
		ComputeCrash:       true,
		ComputeCrashOpSpan: 6,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulty := newTestServer(t, Config{
		NProcs:       4,
		ProcsPerNode: 2,
		SmallMNK:     1,
		MaxTaskK:     8,
		Hier:         true,
		FaultPlan:    plan,
		RetryBudget:  3,
		RetryBackoff: 2 * time.Millisecond,
	})
	clean := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1, MaxTaskK: 8})

	for i := 0; i < 4; i++ {
		n := 64 - 8*(i%2)
		req := randReq(n, n, n, uint64(1300+i))
		req.ID = fmt.Sprintf("hier-chaos-%d", i)

		var want MultiplyResponse
		if code, _ := post(t, clean, req, &want); code != http.StatusOK {
			t.Fatalf("request %d: clean status %d", i, code)
		}
		var got MultiplyResponse
		code, w := post(t, faulty, req, &got)
		if code != http.StatusOK {
			t.Fatalf("request %d: hier chaos status %d: %s", i, code, w.Body.String())
		}
		for e := range got.C {
			if got.C[e] != want.C[e] {
				t.Fatalf("request %d: C[%d] = %v after group kill, want %v (bit-exact)", i, e, got.C[e], want.C[e])
			}
		}
	}

	rec := faulty.Metrics().Recovery
	if rec.Retries == 0 {
		t.Error("no handler retries recorded; the planted crash never killed a group")
	}
	if rec.ResumedJobs == 0 {
		t.Errorf("no resumed jobs (retries=%d restarted=%d): the hier retry is not salvaging completed work", rec.Retries, rec.RestartedJobs)
	}
	t.Logf("hier chaos recovery: %+v", rec)
}
