package server

// Cluster serving gate: the sharded route must be bit-identical to the
// in-process distributed route across every transpose case, absorb an
// induced worker death through the retry budget with zero wrong answers,
// and resume (not restart) after a mid-compute crash via the cross-process
// salvage. This is the test `make cluster-smoke` runs under -race.

import (
	"math"
	"net/http"
	"os"
	"testing"

	"srumma/internal/faults"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
)

// TestMain doubles as the worker entry point: a cluster-mode server
// re-executes this test binary for its node ranks, and MaybeWorker diverts
// those copies into rank mode before any test runs.
func TestMain(m *testing.M) {
	ipcrt.MaybeWorker()
	os.Exit(m.Run())
}

// clusterCaseReq builds one deterministic request with the STORED operand
// shapes of the given transpose case (for "TN" A is the k x m array used
// transposed, etc.).
func clusterCaseReq(m, k, n int, cse string, seed uint64, beta float64) MultiplyRequest {
	ar, ac := m, k
	if cse == "TN" || cse == "TT" {
		ar, ac = k, m
	}
	br, bc := k, n
	if cse == "NT" || cse == "TT" {
		br, bc = n, k
	}
	req := MultiplyRequest{
		Case:  cse,
		ARows: ar, ACols: ac, A: mat.Random(ar, ac, seed).Data,
		BRows: br, BCols: bc, B: mat.Random(br, bc, seed+1).Data,
	}
	if beta != 0 {
		req.Beta = &beta
		req.C = mat.Random(m, n, seed+2).Data
	}
	return req
}

func skipWithoutCluster(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process cluster run in -short mode")
	}
	if !ipcrt.Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
}

func bitIdentical(t *testing.T, label string, got, want MultiplyResponse) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.C) != len(want.C) {
		t.Fatalf("%s: %d elements, want %d", label, len(got.C), len(want.C))
	}
	for i := range got.C {
		if math.Float64bits(got.C[i]) != math.Float64bits(want.C[i]) {
			t.Fatalf("%s: element %d: %v != %v (not bit-identical)", label, i, got.C[i], want.C[i])
		}
	}
}

// TestClusterServeSmoke shards /v1/multiply across two emulated worker
// nodes (2 ranks x 2 domains each) and holds every transpose case to the
// in-process SRUMMA route bit for bit, then induces a worker death and
// requires the retry budget to absorb it — same answer, HTTP 200, node
// replaced.
func TestClusterServeSmoke(t *testing.T) {
	skipWithoutCluster(t)
	// SmallMNK 1 forces the distributed route for the modest shapes the
	// test can afford; both servers share topology so blocks land alike.
	ref := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1})
	cl := newTestServer(t, Config{
		NProcs: 4, ProcsPerNode: 2, SmallMNK: 1,
		Cluster: true, ClusterNodes: 2, clusterHeartbeat: -1,
	})

	for i, cse := range []string{"NN", "TN", "NT", "TT"} {
		req := clusterCaseReq(96, 80, 112, cse, uint64(40+3*i), 0.5)
		req.ID = "cluster-" + cse
		var refResp, clResp MultiplyResponse
		if code, w := post(t, ref, req, &refResp); code != http.StatusOK {
			t.Fatalf("case %s in-process: HTTP %d: %s", cse, code, w.Body.String())
		}
		if code, w := post(t, cl, req, &clResp); code != http.StatusOK {
			t.Fatalf("case %s cluster: HTTP %d: %s", cse, code, w.Body.String())
		}
		if refResp.Route != routeSRUMMA {
			t.Fatalf("case %s: reference took route %q, want %q", cse, refResp.Route, routeSRUMMA)
		}
		if clResp.Route != routeCluster {
			t.Fatalf("case %s: cluster server took route %q, want %q", cse, clResp.Route, routeCluster)
		}
		bitIdentical(t, "case "+cse, clResp, refResp)
	}

	// Induced worker death: rank 1 of whichever node takes the next job
	// exits at job start. The pool replaces the node, the handler retries,
	// and the client still sees 200 with the bit-identical answer.
	cl.cpool.InjectExit(1, 3)
	req := clusterCaseReq(96, 80, 112, "NN", 40, 0.5)
	req.ID = "cluster-after-death"
	var refResp, clResp MultiplyResponse
	if code, w := post(t, ref, req, &refResp); code != http.StatusOK {
		t.Fatalf("post-death in-process: HTTP %d: %s", code, w.Body.String())
	}
	if code, w := post(t, cl, req, &clResp); code != http.StatusOK {
		t.Fatalf("post-death cluster: HTTP %d: %s", code, w.Body.String())
	}
	bitIdentical(t, "post-death", clResp, refResp)

	snap := cl.Metrics()
	if snap.Recovery.Retries == 0 {
		t.Error("worker death produced no handler retry")
	}
	if len(snap.Cluster) != 2 {
		t.Fatalf("metrics report %d nodes, want 2", len(snap.Cluster))
	}
	replaced := int64(0)
	for _, nd := range snap.Cluster {
		if !nd.Healthy {
			t.Errorf("node %d unhealthy after replacement: %+v", nd.ID, nd)
		}
		replaced += nd.Replaced
	}
	if replaced == 0 {
		t.Error("no node replacement recorded after induced worker death")
	}
}

// TestClusterServeChaosResume kills a worker rank mid-job (a seeded,
// deterministic crash inside the task loop, after tasks have completed)
// and requires the retried job to RESUME from the salvaged ledger — not
// restart — and still produce the bit-identical result.
func TestClusterServeChaosResume(t *testing.T) {
	skipWithoutCluster(t)
	ref := newTestServer(t, Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1, maxTaskK: 8})
	cl := newTestServer(t, Config{
		NProcs: 4, ProcsPerNode: 2, SmallMNK: 1, maxTaskK: 8,
		Cluster: true, ClusterNodes: 1, clusterHeartbeat: -1,
	})

	// One-shot planted fault: a deterministically chosen rank panics at a
	// deterministically chosen local-gemm index — the mid-job death the
	// block-level recovery ledger exists for. MaxTaskK 8 gives the ledger
	// fine units so the crash lands after completed tasks.
	// Seed 13 plants the death at rank 3's 6th local gemm (deterministic:
	// faults.Plan.ComputeCrashPoint), so completed tasks exist to salvage.
	cl.cpool.InjectChaos(&faults.Config{Seed: 13, ComputeCrash: true, ComputeCrashOpSpan: 6})

	req := clusterCaseReq(96, 80, 112, "NN", 7, 0.5)
	req.ID = "cluster-chaos"
	var refResp, clResp MultiplyResponse
	if code, w := post(t, ref, req, &refResp); code != http.StatusOK {
		t.Fatalf("in-process: HTTP %d: %s", code, w.Body.String())
	}
	if code, w := post(t, cl, req, &clResp); code != http.StatusOK {
		t.Fatalf("cluster with chaos: HTTP %d: %s", code, w.Body.String())
	}
	bitIdentical(t, "chaos-resume", clResp, refResp)

	snap := cl.Metrics()
	if snap.Recovery.Retries == 0 {
		t.Fatal("planted crash produced no handler retry")
	}
	if snap.Recovery.ResumedJobs == 0 || snap.Recovery.ResumedTasks == 0 {
		t.Errorf("retry restarted instead of resuming: %+v", snap.Recovery)
	}
}
