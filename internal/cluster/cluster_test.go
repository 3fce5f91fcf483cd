package cluster

import (
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/ipcrt"
	"srumma/internal/job"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// TestMain doubles as the worker entry point: launching a node re-executes
// this test binary, and MaybeWorker diverts those copies into rank mode.
func TestMain(m *testing.M) {
	ipcrt.MaybeWorker()
	os.Exit(m.Run())
}

func newPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if !ipcrt.Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestLocalityRouting(t *testing.T) {
	keyA := PlaceKey{M: 256, N: 256, K: 256}
	keyB := PlaceKey{M: 64, N: 512, K: 128, Case: 2}
	if keyA.Locality() != (PlaceKey{M: 256, N: 256, K: 256}).Locality() {
		t.Fatal("locality hash is not deterministic")
	}
	allHealthy := func(int) bool { return true }
	for _, n := range []int{1, 2, 3, 7} {
		a1 := preferredNode(n, keyA, allHealthy)
		a2 := preferredNode(n, keyA, allHealthy)
		if a1 != a2 {
			t.Fatalf("n=%d: same key placed on %d then %d", n, a1, a2)
		}
		if a1 < 0 || a1 >= n {
			t.Fatalf("n=%d: placement %d out of range", n, a1)
		}
	}
	// Distinct shapes should not all collapse onto one node (the finalizer
	// mixes the packed key).
	if preferredNode(7, keyA, allHealthy) == preferredNode(7, keyB, allHealthy) &&
		preferredNode(5, keyA, allHealthy) == preferredNode(5, keyB, allHealthy) &&
		preferredNode(3, keyA, allHealthy) == preferredNode(3, keyB, allHealthy) {
		t.Error("two different shapes hash to the same node at n=3, 5 and 7")
	}
}

func TestRoutingSkipsUnhealthy(t *testing.T) {
	key := PlaceKey{M: 96, N: 96, K: 96}
	n := 4
	pref := int(key.Locality() % uint64(n))
	got := preferredNode(n, key, func(i int) bool { return i != pref })
	if got == pref {
		t.Fatalf("routed to the unhealthy preferred node %d", pref)
	}
	if got != (pref+1)%n {
		t.Errorf("routed to %d, want wrap-scan successor %d", got, (pref+1)%n)
	}
	if preferredNode(n, key, func(int) bool { return false }) != -1 {
		t.Error("all-down registry still placed a job")
	}
}

// armciWant runs the spec on the in-process engine with the node topology.
func armciWant(t *testing.T, np, ppn int, spec *ipcrt.JobSpec) [][]float64 {
	t.Helper()
	topo := rt.Topology{NProcs: np, ProcsPerNode: ppn}
	blocks := make([][]float64, np)
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

func specFor(m, n, k int) *ipcrt.JobSpec {
	spec := ipcrt.DefaultSpec(m, n, k)
	spec.ReturnC = true
	return spec
}

// TestPoolRun shards jobs over two nodes and holds every result to the
// in-process reference, plus the steady-state contract: the second
// same-shape job on the warm preferred node makes no new mmap calls.
func TestPoolRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	reg := obs.NewRegistry()
	p := newPool(t, Config{Nodes: 2, NP: 4, PPN: 2, Metrics: reg})
	key := PlaceKey{M: 64, N: 64, K: 64}

	want := armciWant(t, 4, 2, specFor(64, 64, 64))
	var baseline []int64
	for round := 0; round < 2; round++ {
		res, err := p.Run(specFor(64, 64, 64), key)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mallocs := make([]int64, len(res))
		for rank, r := range res {
			if r.Err != "" {
				t.Fatalf("round %d rank %d: %s", round, rank, r.Err)
			}
			mallocs[rank] = r.MmapMallocs
			for i := range r.C {
				if math.Float64bits(r.C[i]) != math.Float64bits(want[rank][i]) {
					t.Fatalf("round %d rank %d element %d: %v != %v", round, rank, i, r.C[i], want[rank][i])
				}
			}
		}
		if round == 0 {
			baseline = mallocs
		} else {
			for rank := range mallocs {
				if mallocs[rank] != baseline[rank] {
					t.Errorf("rank %d mmap mallocs %d -> %d across same-shape jobs (cold segment pool)",
						rank, baseline[rank], mallocs[rank])
				}
			}
		}
	}
	if got := reg.Counter("cluster.jobs").Load(); got != 2 {
		t.Errorf("cluster.jobs = %d, want 2", got)
	}
}

// TestPoolReplaceOnDeath kills a rank mid-job: Run must return the typed
// rank-exit error (the retry policy's signal), replace the node
// synchronously, and serve the next job on the fresh cluster.
func TestPoolReplaceOnDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	reg := obs.NewRegistry()
	p := newPool(t, Config{Nodes: 1, NP: 4, PPN: 2, Metrics: reg})
	key := PlaceKey{M: 64, N: 64, K: 64}

	p.InjectExit(2, 3)
	_, err := p.Run(specFor(64, 64, 64), key)
	if err == nil {
		t.Fatal("job with a dying rank succeeded")
	}
	if !errors.Is(err, rt.ErrRankExited) {
		t.Fatalf("error %v is not rt.ErrRankExited", err)
	}

	stats := p.Snapshot()
	if !stats[0].Healthy || stats[0].Replaced != 1 {
		t.Fatalf("node not replaced after death: %+v", stats[0])
	}
	if got := reg.Counter("cluster.node_replaced").Load(); got != 1 {
		t.Errorf("cluster.node_replaced = %d, want 1", got)
	}

	res, err := p.Run(specFor(64, 64, 64), key)
	if err != nil {
		t.Fatalf("job on replaced node: %v", err)
	}
	want := armciWant(t, 4, 2, specFor(64, 64, 64))
	for rank, r := range res {
		if r.Err != "" {
			t.Fatalf("rank %d: %s", rank, r.Err)
		}
		for i := range r.C {
			if math.Float64bits(r.C[i]) != math.Float64bits(want[rank][i]) {
				t.Fatalf("rank %d element %d differs after replacement", rank, i)
			}
		}
	}
}

// TestHeartbeatReplace kills a worker while the pool is idle: the
// background health checker must notice and replace the node without any
// job traffic.
func TestHeartbeatReplace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	p := newPool(t, Config{Nodes: 1, NP: 2, PPN: 2, HeartbeatEvery: 50 * time.Millisecond})

	p.nodes[0].mu.Lock()
	if err := p.nodes[0].cl.Kill(1); err != nil {
		p.nodes[0].mu.Unlock()
		t.Fatalf("Kill: %v", err)
	}
	p.nodes[0].mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s := p.Snapshot(); s[0].Replaced >= 1 && s[0].Healthy {
			res, err := p.Run(specFor(32, 32, 32), PlaceKey{M: 32, N: 32, K: 32})
			if err != nil {
				t.Fatalf("job after heartbeat replacement: %v", err)
			}
			for rank, r := range res {
				if r.Err != "" {
					t.Fatalf("rank %d: %s", rank, r.Err)
				}
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("heartbeat never replaced the dead node: %+v", p.Snapshot()[0])
}

func TestNodeListenAddr(t *testing.T) {
	for _, tc := range []struct {
		base string
		id   int
		want string
	}{
		{"", 0, ""},
		{"", 3, ""},
		{"127.0.0.1:7411", 0, "127.0.0.1:7411"},
		{"127.0.0.1:7411", 2, "127.0.0.1:7413"},
		{"0.0.0.0:0", 5, "0.0.0.0:0"}, // ephemeral stays ephemeral
		{"[::1]:9000", 1, "[::1]:9001"},
		{"garbage", 1, "garbage"}, // Launch rejects it with a real error
	} {
		if got := nodeListenAddr(tc.base, tc.id); got != tc.want {
			t.Errorf("nodeListenAddr(%q, %d) = %q, want %q", tc.base, tc.id, got, tc.want)
		}
	}
}
