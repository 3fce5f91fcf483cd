package ipcrt

import (
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// TestMain is also the worker entry point: the coordinator re-executes this
// test binary, and MaybeWorker diverts those copies before any test runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	maybeJoinWorker() // external-join copies (join_test.go) divert here
	os.Exit(m.Run())
}

func launchCluster(t *testing.T, np, ppn int) *Cluster {
	t.Helper()
	if !Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
	cl, err := Launch(Config{NP: np, PPN: ppn})
	if err != nil {
		t.Fatalf("Launch(np=%d, ppn=%d): %v", np, ppn, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// armciBlocks runs the same spec through RunBody on the in-process engine
// with the same topology, returning per-rank C blocks.
func armciBlocks(t *testing.T, topo rt.Topology, spec *JobSpec) [][]float64 {
	t.Helper()
	blocks := make([][]float64, topo.NProcs)
	var mu sync.Mutex
	var firstErr error
	_, err := armci.Run(topo, func(c rt.Ctx) {
		out, _, _, err := RunBody(c, spec)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		blocks[c.Rank()] = out
	})
	if err != nil {
		t.Fatalf("armci run: %v", err)
	}
	if firstErr != nil {
		t.Fatalf("armci body: %v", firstErr)
	}
	return blocks
}

// TestIPCBitIdentical is the engine's core gate: 2 emulated nodes x 2 ranks
// on localhost must produce bit-identical C blocks to the in-process armci
// engine with the same topology, for all four transpose cases.
func TestIPCBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	cl := launchCluster(t, topo.NProcs, topo.ProcsPerNode)

	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		t.Run(cs.String(), func(t *testing.T) {
			spec := DefaultSpec(96, 80, 112)
			spec.Case = int(cs)
			spec.Beta = 0.5
			spec.ReturnC = true
			// One kernel thread keeps the dgemm partitioning out of the
			// comparison; task order is already pinned by the shared topology.
			spec.KernelThreads = 1

			results, err := cl.RunJob(spec, 2*time.Minute)
			if err != nil {
				t.Fatalf("RunJob: %v", err)
			}
			want := armciBlocks(t, topo, spec)
			for rank, res := range results {
				if res.Err != "" {
					t.Fatalf("rank %d: %s", rank, res.Err)
				}
				if len(res.C) != len(want[rank]) {
					t.Fatalf("rank %d: C block has %d elements, armci has %d", rank, len(res.C), len(want[rank]))
				}
				for i := range res.C {
					if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
						t.Fatalf("rank %d element %d: ipc %v != armci %v (bit difference)",
							rank, i, res.C[i], want[rank][i])
					}
				}
			}
		})
	}
}

// TestIPCPaths pins the transport split: with 2 ranks per node, intra-node
// operands must ride the mmap Direct path (DirectMaps > 0, shared-domain
// get bytes) and cross-node operands the socket RMA path (remote gets).
// With every rank on one node, nothing may touch the socket data path.
func TestIPCPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	spec := DefaultSpec(64, 64, 64)
	spec.KernelThreads = 1

	t.Run("split", func(t *testing.T) {
		cl := launchCluster(t, 4, 2)
		results, err := cl.RunJob(spec, 2*time.Minute)
		if err != nil {
			t.Fatalf("RunJob: %v", err)
		}
		for rank, res := range results {
			if res.Err != "" {
				t.Fatalf("rank %d: %s", rank, res.Err)
			}
			// Same-domain operands skip Get entirely: the executor takes
			// Direct views of the peer's mmap segment, which is why the
			// counter to assert is DirectMaps rather than GetsShared.
			if res.DirectMaps == 0 {
				t.Errorf("rank %d mapped no peer segments: intra-node operands did not take the mmap path", rank)
			}
			if res.Stats.GetsRemote == 0 {
				t.Errorf("rank %d: no remote gets — cross-node operands did not use the socket", rank)
			}
		}
	})

	t.Run("single-node", func(t *testing.T) {
		cl := launchCluster(t, 4, 4)
		results, err := cl.RunJob(spec, 2*time.Minute)
		if err != nil {
			t.Fatalf("RunJob: %v", err)
		}
		for rank, res := range results {
			if res.Err != "" {
				t.Fatalf("rank %d: %s", rank, res.Err)
			}
			if res.Stats.GetsRemote != 0 || res.Stats.BytesRemote != 0 {
				t.Errorf("rank %d used the socket path (%d gets, %d bytes) with all ranks on one node",
					rank, res.Stats.GetsRemote, res.Stats.BytesRemote)
			}
		}
	})
}

// TestIPCMPCollectives drives internal/mp (Bcast + Allreduce, i.e. the
// mailbox send/recv layer) across the process boundary.
func TestIPCMPCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	spec := DefaultSpec(0, 16, 0)
	spec.MPCheck = true
	spec.ReturnC = true
	spec.Seed = 42

	results, err := cl.RunJob(spec, time.Minute)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	want := ExpectedMPCheck(16, 4, 42)
	for rank, res := range results {
		if res.Err != "" {
			t.Fatalf("rank %d: %s", rank, res.Err)
		}
		if len(res.C) != len(want) {
			t.Fatalf("rank %d: %d elements, want %d", rank, len(res.C), len(want))
		}
		for i := range want {
			if res.C[i] != want[i] {
				t.Errorf("rank %d element %d: %v != %v", rank, i, res.C[i], want[i])
			}
		}
	}
}

// TestIPCTrace checks the observability plumbing: per-worker recorders ship
// their events home and MergeEvents aligns them on one timeline.
func TestIPCTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	spec := DefaultSpec(64, 64, 64)
	spec.Trace = true
	spec.KernelThreads = 1

	results, err := cl.RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	merged := MergeEvents(results, time.Now())
	if len(merged) == 0 {
		t.Fatal("no events merged")
	}
	kinds := map[obs.Kind]bool{}
	lanes := map[int]bool{}
	for _, e := range merged {
		kinds[e.Kind] = true
		lanes[e.Rank] = true
	}
	for _, want := range []obs.Kind{obs.KindGemm, obs.KindGet, obs.KindBarrier, obs.KindJob} {
		if !kinds[want] {
			t.Errorf("no %v events in the merged trace", want)
		}
	}
	if len(lanes) != 4 {
		t.Errorf("events on %d lanes, want 4", len(lanes))
	}
}

// TestIPCWorkerDeath kills one rank mid-job and requires the typed
// worker-exited failure naming the rank and exit code — not a hang.
func TestIPCWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	spec := DefaultSpec(64, 64, 64)
	spec.ExitRank = 2
	spec.ExitCode = 3

	_, err := cl.RunJob(spec, time.Minute)
	if err == nil {
		t.Fatal("job with a dying rank succeeded")
	}
	if !errors.Is(err, rt.ErrRankExited) {
		t.Fatalf("error %v is not rt.ErrRankExited", err)
	}
	if errors.Is(err, rt.ErrRankDeadlocked) {
		t.Fatalf("error %v claims both failure classes", err)
	}
	var ree *RankExitError
	if !errors.As(err, &ree) {
		t.Fatalf("error %v carries no RankExitError", err)
	}
	if ree.Rank != 2 || ree.ExitCode != 3 {
		t.Errorf("reported rank %d exit code %d, want rank 2 code 3", ree.Rank, ree.ExitCode)
	}

	// The cluster is poisoned: further jobs are refused, not hung.
	if _, err := cl.RunJob(DefaultSpec(8, 8, 8), time.Minute); err == nil {
		t.Error("poisoned cluster accepted another job")
	}
}

// TestIPCDeadlock wedges one rank and requires the deadlock classification
// with every live-but-stuck rank listed.
func TestIPCDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	spec := DefaultSpec(64, 64, 64)
	spec.HangRank = 1

	_, err := cl.RunJob(spec, 3*time.Second)
	if err == nil {
		t.Fatal("job with a wedged rank succeeded")
	}
	if !errors.Is(err, rt.ErrRankDeadlocked) {
		t.Fatalf("error %v is not rt.ErrRankDeadlocked", err)
	}
	if errors.Is(err, rt.ErrRankExited) {
		t.Fatalf("error %v claims both failure classes", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v carries no DeadlockError", err)
	}
	found := false
	for _, r := range de.Pending {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("pending ranks %v do not include the wedged rank 1", de.Pending)
	}
}

// TestIPCJobError: a panicking job body comes back as a per-rank error and
// poisons the cluster without killing the test process.
func TestIPCJobError(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 2, 2)
	spec := DefaultSpec(8, 8, 8)
	spec.Chaos = &faults.Config{DropRate: 2} // no such fault plan: every rank's body fails cleanly

	results, err := cl.RunJob(spec, time.Minute)
	if err == nil {
		t.Fatal("invalid job succeeded")
	}
	var rje *RankJobError
	if !errors.As(err, &rje) {
		t.Fatalf("error %v carries no RankJobError", err)
	}
	for _, res := range results {
		if res != nil && res.Err == "" {
			t.Errorf("rank %d reported success on an unbuildable fault plan", res.Rank)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	if !Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
	if _, err := Launch(Config{NP: 0, PPN: 1}); err == nil {
		t.Error("Launch accepted 0 processes")
	}
	if _, err := Launch(Config{NP: 4, PPN: 0}); err == nil {
		t.Error("Launch accepted 0 ranks per node")
	}
}

// TestRunJobRefusesMalformedSpec: the coordinator turns a spec that cannot
// run into a *SpecError before a single frame is sent — no rank fails, the
// cluster is not poisoned, and the next job runs.
func TestRunJobRefusesMalformedSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 2, 2)
	bad := map[string]*JobSpec{
		"dims":       DefaultSpec(0, 4, 4),
		"case":       {M: 4, N: 4, K: 4, Case: 7, ExitRank: -1, HangRank: -1},
		"short A":    {M: 4, N: 4, K: 4, Data: true, A: make([]float64, 15), B: make([]float64, 16), ExitRank: -1, HangRank: -1},
		"long B":     {M: 4, N: 4, K: 4, Data: true, A: make([]float64, 16), B: make([]float64, 17), ExitRank: -1, HangRank: -1},
		"no C":       {M: 4, N: 4, K: 4, Beta: 1, Data: true, A: make([]float64, 16), B: make([]float64, 16), ExitRank: -1, HangRank: -1},
		"prior rank": {M: 4, N: 4, K: 4, Prior: map[int]RankPrior{2: {}}, ExitRank: -1, HangRank: -1},
		"prior size": {M: 4, N: 4, K: 4, Prior: map[int]RankPrior{1: {C: make([]float64, 9)}}, ExitRank: -1, HangRank: -1},
	}
	for name, spec := range bad {
		_, err := cl.RunJob(spec, time.Minute)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *SpecError", name, err)
		}
	}
	spec := DefaultSpec(8, 8, 8)
	spec.MPCheck = true // its operands are not a GEMM's; nothing to check
	if _, err := cl.RunJob(spec, time.Minute); err != nil {
		t.Fatalf("job after the refused specs: %v", err)
	}
}

// TestWorkerCtxPoolsScratch: a worker rank's scratch comes from the local
// half it embeds (armci.LocalOps), so it is recycled through
// rt.BufferReleaser like a goroutine rank's, under the same misuse checks —
// a second release and the release of a mapped segment are refused.
func TestWorkerCtxPoolsScratch(t *testing.T) {
	c := newCtx(0, rt.Topology{NProcs: 1, ProcsPerNode: 1}, t.TempDir(), nil)
	rel := rt.FindBufferReleaser(c)
	if rel == nil {
		t.Fatal("a worker's ctx does not recycle scratch")
	}
	b := c.LocalBuf(100)
	rel.ReleaseBuf(b)
	for what, bad := range map[string]rt.Buffer{"second release": b, "segment": armci.Segment(make([]float64, 8))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", what)
				}
			}()
			rel.ReleaseBuf(bad)
		}()
	}
}
