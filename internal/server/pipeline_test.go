package server

// One-pipeline gates: the in-process team and the cluster pool are two
// runners of ONE job — same spec from the one builder, same rank body,
// same recovery state — so for the same request they must return the same
// bits, clean or resumed after a planted mid-job rank death. Plus the
// regressions the collapse could have introduced: per-request kernel
// threads stated on every job, and an interrupted drain that still tears
// the worker processes down.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"srumma/internal/armci"
	"srumma/internal/cluster"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/job"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// runnerJob wraps req as the scheduler payload runDistributed takes, with
// fresh recovery state.
func runnerJob(t *testing.T, req *MultiplyRequest) *schedJob {
	t.Helper()
	cs, err := parseCase(req.Case)
	if err != nil {
		t.Fatal(err)
	}
	d, err := req.dims(cs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return &schedJob{req: req, cs: cs, d: d, ctx: context.Background(), rec: &jobRecovery{}}
}

// crashConfig returns a seeded fault config whose one planted fault is a
// compute crash at a local-gemm index in [minOp, maxOp] of rank (any rank
// when negative), and the rank it picked: late enough that completed tasks
// exist to salvage, early enough to fire.
func crashConfig(t *testing.T, nprocs, rank, minOp, maxOp int) (faults.Config, int) {
	t.Helper()
	for seed := uint64(1); seed < 1000; seed++ {
		cfg := faults.Config{Seed: seed, ComputeCrash: true, ComputeCrashOpSpan: 6}
		plan, err := faults.NewPlan(cfg, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		if r, op := plan.ComputeCrashPoint(); (rank < 0 || r == rank) && op >= minOp && op <= maxOp {
			return cfg, r
		}
	}
	t.Fatalf("no seed plants a compute crash on rank %d at op %d..%d", rank, minOp, maxOp)
	return faults.Config{}, 0
}

// TestRunnersOnePipeline drives the same request through the team runner
// and the pool runner — all four transpose cases, flat and hierarchical,
// clean and resumed — and holds every result to the first one bit for bit.
// The resumed runs plant a mid-compute rank death (two in a row for NN) and
// check the recovery state on the way: completed tasks carried over, the
// salvage consumed exactly once, nothing left behind after success.
func TestRunnersOnePipeline(t *testing.T) {
	skipWithoutCluster(t)
	for _, hierOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("hier=%v", hierOn), func(t *testing.T) {
			t.Parallel()
			cfg := Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1, MaxTaskK: 8, KernelThreads: 1, Hier: hierOn}
			teamSrv := newTestServer(t, cfg)
			tm, err := armci.NewTeam(teamSrv.topo)
			if err != nil {
				t.Fatal(err)
			}
			defer tm.Close()
			cfg.Cluster, cfg.ClusterNodes, cfg.ClusterHeartbeat = true, 1, -1
			poolSrv := newTestServer(t, cfg)

			type runner struct {
				name string
				srv  *Server
				tm   *armci.Team
				// plant arms a one-shot crash for the next attempt. The team's
				// injector stays layered over the later attempts of the job (it
				// fires once), as a chaos-configured server's would.
				plant func(faults.Config)
			}
			runners := []runner{
				{"team", teamSrv, tm, func(fc faults.Config) {
					plan, err := faults.NewPlan(fc, 4)
					if err != nil {
						t.Fatal(err)
					}
					teamSrv.chaos = faults.NewShared(plan)
				}},
				{"pool", poolSrv, nil, func(fc faults.Config) { poolSrv.cpool.InjectChaos(&fc) }},
			}
			// Each rank owns 10 tasks (K 80 in panels of 8). The second crash
			// hits the rank the first one did: it resumes with at least five
			// tasks left, so a crash within its next three gemms must fire.
			first, victim := crashConfig(t, 4, -1, 2, 5)
			second, _ := crashConfig(t, 4, victim, 1, 2)

			for i, cse := range []string{"NN", "TN", "NT", "TT"} {
				req := clusterCaseReq(96, 80, 112, cse, uint64(60+3*i), 0.5)
				teamSpec := teamSrv.jobSpec(runnerJob(t, &req))
				poolSpec := poolSrv.jobSpec(runnerJob(t, &req))
				if !reflect.DeepEqual(teamSpec, poolSpec) {
					t.Fatalf("case %s: the builder gave the two runners different jobs:\n team %+v\n pool %+v", cse, teamSpec, poolSpec)
				}

				var ref *mat.Matrix
				for _, r := range runners {
					label := fmt.Sprintf("case %s on %s", cse, r.name)
					clean, err := r.srv.runDistributed(r.tm, runnerJob(t, &req))
					if err != nil {
						t.Fatalf("%s, clean: %v", label, err)
					}
					if ref == nil {
						ref = clean
					}
					if !mat.Equal(clean, ref) {
						t.Fatalf("%s, clean: not bit-identical to the first result", label)
					}

					job := runnerJob(t, &req)
					crashes := []faults.Config{first}
					if cse == "NN" {
						crashes = append(crashes, second)
					}
					for n, fc := range crashes {
						r.plant(fc)
						if _, err := r.srv.runDistributed(r.tm, job); !retryableRunError(err) {
							t.Fatalf("%s, planted crash %d: err = %v, want a retryable failure", label, n+1, err)
						}
					}
					if job.rec.resumedTasks() == 0 {
						t.Fatalf("%s: the failed attempt banked no completed tasks", label)
					}
					// The builder consumes the salvage: a second spec for the same
					// attempt must not see it again.
					took, again := r.srv.jobSpec(job), r.srv.jobSpec(job)
					if len(took.Prior) == 0 || again.Prior != nil {
						t.Fatalf("%s: salvage handed out %d then %d ranks, want some then none", label, len(took.Prior), len(again.Prior))
					}
					job.rec.ranks = took.Prior // the probe consumed it; hand it back so the next attempt resumes

					resumed, err := r.srv.runDistributed(r.tm, job)
					if err != nil {
						t.Fatalf("%s, resumed: %v", label, err)
					}
					if !mat.Equal(resumed, ref) {
						t.Fatalf("%s, resumed: not bit-identical to the clean result", label)
					}
					if job.rec.take() != nil {
						t.Fatalf("%s: salvage left behind after a successful attempt", label)
					}
					teamSrv.chaos = nil
				}
			}
		})
	}
}

// tunerSpy records what the rank body tells the engine's kernel tuner.
type tunerSpy struct {
	rt.Ctx
	seen *[]int
}

func (s tunerSpy) SetKernelThreads(n int) { *s.seen = append(*s.seen, n) }

// TestKernelThreadsStatedEveryJob: team ranks keep the previous job's
// kernel-thread setting, so a request that names none must reset it to the
// configured default — the body has to state the count on every job, not
// only when it is positive.
func TestKernelThreadsStatedEveryJob(t *testing.T) {
	for _, def := range []int{2, 0} {
		s := newTestServer(t, Config{NProcs: 4, SmallMNK: 1, KernelThreads: def})
		tm, err := armci.NewTeam(s.topo)
		if err != nil {
			t.Fatal(err)
		}
		defer tm.Close()
		seen := make([][]int, 4)
		for _, threads := range []int{3, 0} {
			req := randReq(24, 24, 24, 11)
			req.KernelThreads = threads
			spec := s.jobSpec(runnerJob(t, &req))
			if _, err := tm.Run(func(c rt.Ctx) {
				if _, err := job.Run(tunerSpy{c, &seen[c.Rank()]}, spec, nil); err != nil {
					panic(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		for rank, got := range seen {
			if want := []int{3, def}; !reflect.DeepEqual(got, want) {
				t.Fatalf("default %d, rank %d: kernel threads stated %v, want %v", def, rank, got, want)
			}
		}
	}
}

// workerPIDs lists the processes whose environment names dir as their ipc
// run directory — the pool's worker ranks.
func workerPIDs(dir string) []int {
	var pids []int
	procs, _ := filepath.Glob("/proc/[0-9]*")
	for _, p := range procs {
		env, err := os.ReadFile(filepath.Join(p, "environ"))
		if err != nil || !bytes.Contains(env, []byte("SRUMMA_IPC_DIR="+dir+"\x00")) {
			continue
		}
		if pid, err := strconv.Atoi(filepath.Base(p)); err == nil {
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestInterruptedDrainClosesClusterPool: when the drain deadline expires
// with a request still in flight, Shutdown reports the interruption — and
// must still stop the pool's worker processes and remove their run
// directories (control and rank sockets, segment files).
func TestInterruptedDrainClosesClusterPool(t *testing.T) {
	skipWithoutCluster(t)
	s := newTestServer(t, Config{
		NProcs: 4, ProcsPerNode: 2, SmallMNK: 1,
		Cluster: true, ClusterNodes: 2, ClusterHeartbeat: -1,
	})
	var dirs []string
	var pids []int
	for _, nd := range s.cpool.Snapshot() {
		path, ok := strings.CutPrefix(nd.CoordAddr, "unix:")
		if !ok {
			t.Fatalf("node %d: control address %q is not a unix socket", nd.ID, nd.CoordAddr)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("node %d: control socket missing before shutdown: %v", nd.ID, err)
		}
		dirs = append(dirs, filepath.Dir(path))
		pids = append(pids, workerPIDs(filepath.Dir(path))...)
	}
	if _, err := os.Stat("/proc/self/environ"); err == nil && len(pids) != 8 {
		t.Fatalf("found %d worker processes before shutdown, want 8", len(pids))
	}

	release, entered := blockOn(s, "parked")
	defer release()
	req := randReq(24, 24, 24, 5)
	req.ID = "parked"
	parked := postAsync(t, s, req)
	<-entered

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := s.Shutdown(ctx); err == nil || !strings.Contains(err.Error(), "drain interrupted") {
		t.Fatalf("Shutdown = %v, want drain interrupted", err)
	}
	for _, dir := range dirs {
		if _, err := os.Lstat(dir); err == nil {
			left, _ := os.ReadDir(dir)
			t.Errorf("run directory %s survived the interrupted drain (%d entries)", dir, len(left))
		}
	}
	for _, pid := range pids {
		if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid))); err == nil {
			t.Errorf("worker process %d survived the interrupted drain", pid)
		}
	}
	release()
	<-parked // the parked request fails against the closed pool; it must not hang
}

// TestRunnersRefuseMalformedSpec: a job whose inline operands or salvage do
// not fit its shape is refused by both runners with the same typed,
// non-retryable error BEFORE any rank runs — on a team that used to be a
// rank panic (a poisoned team for a bad request), on the pool a dead node.
// Both runners must serve the next job unharmed.
func TestRunnersRefuseMalformedSpec(t *testing.T) {
	skipWithoutCluster(t)
	cfg := Config{NProcs: 4, ProcsPerNode: 2, SmallMNK: 1}
	teamSrv := newTestServer(t, cfg)
	tm, err := armci.NewTeam(teamSrv.topo)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	cfg.Cluster, cfg.ClusterNodes, cfg.ClusterHeartbeat = true, 1, -1
	poolSrv := newTestServer(t, cfg)
	key := cluster.PlaceKey{M: 24, N: 20, K: 28}
	runners := map[string]func(*ipcrt.JobSpec) (*mat.Matrix, error){
		"team": func(spec *ipcrt.JobSpec) (*mat.Matrix, error) {
			spec.Out = mat.New(spec.M, spec.N)
			_, err := teamSrv.runOnTeam(tm, spec)
			return spec.Out, err
		},
		"pool": func(spec *ipcrt.JobSpec) (*mat.Matrix, error) {
			results, err := poolSrv.cpool.Run(spec, key)
			if err != nil {
				return nil, err
			}
			blocks := make([]*mat.Matrix, len(results))
			for rank, r := range results {
				blocks[rank] = mat.FromData(r.CRows, r.CCols, r.C)
			}
			return grid.NewBlockDist(poolSrv.g, spec.M, spec.N).Gather(blocks)
		},
	}
	req := clusterCaseReq(24, 28, 20, "NN", 7, 0.5)
	good := func() *ipcrt.JobSpec { return teamSrv.jobSpec(runnerJob(t, &req)) }
	hostile := map[string]func(*ipcrt.JobSpec){
		"short A":            func(s *ipcrt.JobSpec) { s.A = s.A[:len(s.A)-1] },
		"long B":             func(s *ipcrt.JobSpec) { s.B = append(append([]float64{}, s.B...), 1) },
		"short C under beta": func(s *ipcrt.JobSpec) { s.CIn = s.CIn[:3] },
		"mismatched Prior.C": func(s *ipcrt.JobSpec) {
			s.UseLedger = true
			s.Prior = map[int]ipcrt.RankPrior{2: {C: make([]float64, 7), Bits: []uint64{1}, Tasks: 1}}
		},
	}
	for rname, run := range runners {
		want, err := run(good())
		if err != nil {
			t.Fatalf("%s, clean: %v", rname, err)
		}
		for hname, corrupt := range hostile {
			spec := good()
			corrupt(spec)
			_, err := run(spec)
			var bad *ipcrt.SpecError
			if !errors.As(err, &bad) {
				t.Fatalf("%s, %s: err = %v, want *ipcrt.SpecError", rname, hname, err)
			}
			if retryableRunError(err) {
				t.Fatalf("%s, %s: a refused spec must not be retried", rname, hname)
			}
		}
		again, err := run(good())
		if err != nil {
			t.Fatalf("%s: job after the refused ones: %v", rname, err)
		}
		if !mat.Equal(again, want) {
			t.Fatalf("%s: the result changed after the refused jobs", rname)
		}
	}
	for _, nd := range poolSrv.cpool.Snapshot() {
		if nd.Replaced != 0 {
			t.Fatalf("node %d was replaced %d times over refused specs", nd.ID, nd.Replaced)
		}
	}
}
