package ipcrt_test

// The engine's multi-process gates. They run jobs, so they live in the
// external test package, which may import the GEMM body (internal/job) that
// itself imports ipcrt; a worker re-executes this test binary, so every body
// this binary registers — that one, and the two-sided exercise below —
// exists in every rank.

import (
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/ipcrt"
	"srumma/internal/job"
	"srumma/internal/mat"
	"srumma/internal/mp"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// TestMain is also the worker entry point: the coordinator re-executes this
// test binary, and MaybeWorker diverts those copies before any test runs.
func TestMain(m *testing.M) {
	ipcrt.MaybeWorker()
	maybeJoinWorker() // external-join copies (join_test.go) divert here
	os.Exit(m.Run())
}

func launchCluster(t *testing.T, np, ppn int) *ipcrt.Cluster {
	t.Helper()
	return launchClusterCfg(t, ipcrt.Config{NP: np, PPN: ppn})
}

// launchClusterCfg is launchCluster with a full Config (transport tests).
func launchClusterCfg(t *testing.T, cfg ipcrt.Config) *ipcrt.Cluster {
	t.Helper()
	if !ipcrt.Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
	cl, err := ipcrt.Launch(cfg)
	if err != nil {
		t.Fatalf("Launch(%+v): %v", cfg, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// armciBlocks runs the same spec through the job body on the in-process
// engine with the same topology, returning per-rank C blocks.
func armciBlocks(t *testing.T, topo rt.Topology, spec *ipcrt.JobSpec) [][]float64 {
	t.Helper()
	blocks := make([][]float64, topo.NProcs)
	var mu sync.Mutex
	var firstErr error
	_, err := armci.Run(topo, func(c rt.Ctx) {
		out, err := job.Run(c, spec, nil)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if out != nil {
			blocks[c.Rank()] = out.Data
		}
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
			spec := ipcrt.DefaultSpec(96, 80, 112)
			spec.Case = int(cs)
			spec.Beta = 0.5
			spec.ReturnC = true

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

// TestTCPBitIdentical is the tcp-transport twin of TestIPCBitIdentical:
// same topology, control plane and cross-domain RMA over TCP instead of
// unix sockets, and the per-peer scheme selection must actually have
// dialed TCP (TCPPeers > 0) while producing bit-identical C blocks.
func TestTCPBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	cl := launchClusterCfg(t, ipcrt.Config{NP: topo.NProcs, PPN: topo.ProcsPerNode, Transport: "tcp"})

	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		t.Run(cs.String(), func(t *testing.T) {
			spec := ipcrt.DefaultSpec(96, 80, 112)
			spec.Case = int(cs)
			spec.Beta = 0.5
			spec.ReturnC = true

			results, err := cl.RunJob(spec, 2*time.Minute)
			if err != nil {
				t.Fatalf("RunJob: %v", err)
			}
			want := armciBlocks(t, topo, spec)
			tcpDials := int64(0)
			for rank, res := range results {
				if res.Err != "" {
					t.Fatalf("rank %d: %s", rank, res.Err)
				}
				tcpDials += res.TCPPeers
				if len(res.C) != len(want[rank]) {
					t.Fatalf("rank %d: C block has %d elements, armci has %d", rank, len(res.C), len(want[rank]))
				}
				for i := range res.C {
					if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
						t.Fatalf("rank %d element %d: tcp %v != armci %v (bit difference)",
							rank, i, res.C[i], want[rank][i])
					}
				}
			}
			if tcpDials == 0 {
				t.Error("no rank dialed a TCP peer: cross-domain traffic did not take the tcp transport")
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
	spec := ipcrt.DefaultSpec(64, 64, 64)

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

// mpCheck is the two-sided exercise, a job body registered by this file:
// rank 0 broadcasts a seed vector, every rank adds its own rank to each
// element, and an Allreduce sums the results. Every rank's outcome is
// Size*base[i] + sum(0..Size-1) — see expectedMPCheck.
const mpCheck = "mpcheck"

func init() { ipcrt.Register(mpCheck, ipcrt.Body{Run: runMPCheck}) }

func runMPCheck(c rt.Ctx, spec *ipcrt.JobSpec, _ *ipcrt.RankResult) (*mat.Matrix, error) {
	n := spec.N
	if n <= 0 {
		n = 8
	}
	all := make([]int, c.Size())
	for i := range all {
		all[i] = i
	}
	b := c.LocalBuf(n)
	if c.Rank() == 0 {
		c.WriteBuf(b, 0, mpCheckBase(n, spec.Seed))
	}
	mp.RingBcast(c, 0, all, b, 0, n, 7)
	vals := c.ReadBuf(b, 0, n)
	for i := range vals {
		vals[i] += float64(c.Rank())
	}
	c.WriteBuf(b, 0, vals)
	mp.Allreduce(c, all, b, 0, n, 9)
	return mat.FromData(1, n, c.ReadBuf(b, 0, n)), nil
}

// mpCheckBase is deliberately small-integer-valued so RingBcast+Allreduce
// results are exact regardless of reduction association order.
func mpCheckBase(n int, seed uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((seed + uint64(i)*7) % 1000)
	}
	return out
}

// expectedMPCheck computes what every rank's mpCheck result must be.
func expectedMPCheck(n, nprocs int, seed uint64) []float64 {
	base := mpCheckBase(n, seed)
	rankSum := float64(nprocs*(nprocs-1)) / 2
	out := make([]float64, n)
	for i, v := range base {
		out[i] = float64(nprocs)*v + rankSum
	}
	return out
}

// TestIPCMPCollectives drives internal/mp (RingBcast + Allreduce, i.e. the
// mailbox send/recv layer) across the process boundary — as a body this
// test file registered, which proves such a body reaches the workers.
func TestIPCMPCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	spec := ipcrt.DefaultSpec(0, 16, 0)
	spec.Body = mpCheck
	spec.ReturnC = true
	spec.Seed = 42

	results, err := cl.RunJob(spec, time.Minute)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	want := expectedMPCheck(16, 4, 42)
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

// TestIPCUnregisteredBody: a body the coordinator has and its workers do
// not — registered here, after every worker diverted in TestMain — is
// answered by each worker with a clean per-rank error naming it, not a
// panic or a hang.
func TestIPCUnregisteredBody(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 2, 2)
	const name = "coordinator-only"
	ipcrt.Register(name, ipcrt.Body{Run: func(rt.Ctx, *ipcrt.JobSpec, *ipcrt.RankResult) (*mat.Matrix, error) {
		return nil, nil
	}})
	spec := ipcrt.DefaultSpec(0, 0, 0)
	spec.Body = name

	results, err := cl.RunJob(spec, time.Minute)
	var rje *ipcrt.RankJobError
	if !errors.As(err, &rje) {
		t.Fatalf("err = %v, want *RankJobError", err)
	}
	for rank, res := range results {
		if res == nil || !strings.Contains(res.Err, `no job body "coordinator-only"`) {
			t.Errorf("rank %d answered %+v, want its refusal of the body", rank, res)
		}
	}
	spec.Body = "nowhere"
	if _, err := cl.RunJob(spec, time.Minute); !errors.As(err, new(*ipcrt.SpecError)) {
		t.Errorf("a body the coordinator lacks: err = %v, want *SpecError before any frame", err)
	}
}

// TestIPCTrace checks the observability plumbing: per-worker recorders ship
// their events home and MergeEvents aligns them on one timeline.
func TestIPCTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	spec := ipcrt.DefaultSpec(64, 64, 64)
	spec.Trace = true

	results, err := cl.RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	merged := ipcrt.MergeEvents(results, time.Now())
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
	spec := ipcrt.DefaultSpec(64, 64, 64)
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
	var ree *ipcrt.RankExitError
	if !errors.As(err, &ree) {
		t.Fatalf("error %v carries no RankExitError", err)
	}
	if ree.Rank != 2 || ree.ExitCode != 3 {
		t.Errorf("reported rank %d exit code %d, want rank 2 code 3", ree.Rank, ree.ExitCode)
	}

	// The cluster is poisoned: further jobs are refused, not hung.
	if _, err := cl.RunJob(ipcrt.DefaultSpec(8, 8, 8), time.Minute); err == nil {
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
	spec := ipcrt.DefaultSpec(64, 64, 64)
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
	var de *ipcrt.DeadlockError
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
	spec := ipcrt.DefaultSpec(8, 8, 8)
	spec.Chaos = &faults.Config{BadBlockRate: 2} // no such fault plan: every rank's body fails cleanly

	results, err := cl.RunJob(spec, time.Minute)
	if err == nil {
		t.Fatal("invalid job succeeded")
	}
	var rje *ipcrt.RankJobError
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
	if !ipcrt.Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
	if _, err := ipcrt.Launch(ipcrt.Config{NP: 0, PPN: 1}); err == nil {
		t.Error("Launch accepted 0 processes")
	}
	if _, err := ipcrt.Launch(ipcrt.Config{NP: 4, PPN: 0}); err == nil {
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
	bad := map[string]*ipcrt.JobSpec{
		"dims":       ipcrt.DefaultSpec(0, 4, 4),
		"case":       {M: 4, N: 4, K: 4, Case: 7, ExitRank: -1, HangRank: -1},
		"short A":    {M: 4, N: 4, K: 4, Data: true, A: make([]float64, 15), B: make([]float64, 16), ExitRank: -1, HangRank: -1},
		"long B":     {M: 4, N: 4, K: 4, Data: true, A: make([]float64, 16), B: make([]float64, 17), ExitRank: -1, HangRank: -1},
		"no C":       {M: 4, N: 4, K: 4, Beta: 1, Data: true, A: make([]float64, 16), B: make([]float64, 16), ExitRank: -1, HangRank: -1},
		"prior rank": {M: 4, N: 4, K: 4, Prior: map[int]ipcrt.RankPrior{2: {}}, ExitRank: -1, HangRank: -1},
		"prior size": {M: 4, N: 4, K: 4, Prior: map[int]ipcrt.RankPrior{1: {C: make([]float64, 9)}}, ExitRank: -1, HangRank: -1},
	}
	for name, spec := range bad {
		_, err := cl.RunJob(spec, time.Minute)
		var se *ipcrt.SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *SpecError", name, err)
		}
	}
	spec := ipcrt.DefaultSpec(8, 8, 8)
	spec.Body = mpCheck // its operands are not a GEMM's; nothing to check
	if _, err := cl.RunJob(spec, time.Minute); err != nil {
		t.Fatalf("job after the refused specs: %v", err)
	}
}

// TestSegmentPoolReuse pins the steady-state allocation contract: the
// second same-shape job on a warm cluster must create NO new segment
// files (flat lifetime MmapMallocs) and map NO new peer segments
// (DirectMaps == 0 for the job), while staying bit-identical to a fresh
// in-process run — stale pooled contents must never leak into results.
func TestSegmentPoolReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	cl := launchCluster(t, topo.NProcs, topo.ProcsPerNode)

	spec := ipcrt.DefaultSpec(64, 64, 64)
	spec.Beta = 0.5
	spec.ReturnC = true

	first, err := cl.RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	baseline := make([]int64, len(first))
	for rank, res := range first {
		if res.Err != "" {
			t.Fatalf("job 1 rank %d: %s", rank, res.Err)
		}
		if res.MmapMallocs == 0 {
			t.Fatalf("job 1 rank %d reports no mmap mallocs — counter dead", rank)
		}
		baseline[rank] = res.MmapMallocs
	}

	second, err := cl.RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	want := armciBlocks(t, topo, spec)
	for rank, res := range second {
		if res.Err != "" {
			t.Fatalf("job 2 rank %d: %s", rank, res.Err)
		}
		if res.MmapMallocs != baseline[rank] {
			t.Errorf("rank %d mmap mallocs %d -> %d: warm pool still creating segments",
				rank, baseline[rank], res.MmapMallocs)
		}
		if res.DirectMaps != 0 {
			t.Errorf("rank %d mapped %d peer segments on a warm pool", rank, res.DirectMaps)
		}
		for i := range res.C {
			if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
				t.Fatalf("rank %d element %d: pooled %v != armci %v (stale segment leaked)",
					rank, i, res.C[i], want[rank][i])
			}
		}
	}

	// A different shape must not be force-fitted into parked segments.
	other := ipcrt.DefaultSpec(96, 48, 32)
	third, err := cl.RunJob(other, 2*time.Minute)
	if err != nil {
		t.Fatalf("job 3: %v", err)
	}
	for rank, res := range third {
		if res.Err != "" {
			t.Fatalf("job 3 rank %d: %s", rank, res.Err)
		}
		if res.MmapMallocs <= baseline[rank] {
			t.Errorf("rank %d mmap mallocs stuck at %d for a new shape", rank, res.MmapMallocs)
		}
	}
}
