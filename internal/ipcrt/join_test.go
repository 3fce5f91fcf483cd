package ipcrt_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"srumma/internal/core"
	"srumma/internal/ipcrt"
	"srumma/internal/rt"
)

// envTestJoin carries explicit WorkerParams (JSON) to a re-executed copy
// of this test binary, exercising the cmd/srumma-worker -join contract:
// an external worker dialing a NoSpawn coordinator's advertised TCP
// control address, rather than being spawned through the env marker.
const envTestJoin = "SRUMMA_IPCTEST_JOIN"

func maybeJoinWorker() {
	spec := os.Getenv(envTestJoin)
	if spec == "" {
		return
	}
	var p ipcrt.WorkerParams
	if err := json.Unmarshal([]byte(spec), &p); err != nil {
		fmt.Fprintf(os.Stderr, "ipcrt join worker: bad %s: %v\n", envTestJoin, err)
		os.Exit(2)
	}
	os.Exit(ipcrt.RunWorker(p))
}

// TestExternalWorkerJoin is the -join path end to end: a NoSpawn
// coordinator binds a fixed TCP control address, NP external worker
// processes dial and hello with explicit WorkerParams (exactly what
// cmd/srumma-worker -join passes), a GEMM runs bit-identical to the
// in-process engine, and shutdown leaves every joined worker exiting 0.
func TestExternalWorkerJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	if !ipcrt.Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}

	// Reserve an ephemeral port so the bind address is known before
	// Launch blocks waiting for hellos.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bind := rsv.Addr().String()
	rsv.Close()

	dir, err := os.MkdirTemp("", "srummaj")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	topo := rt.Topology{NProcs: 2, ProcsPerNode: 1}
	type launched struct {
		cl  *ipcrt.Cluster
		err error
	}
	ch := make(chan launched, 1)
	go func() {
		cl, err := ipcrt.Launch(ipcrt.Config{
			NP:         topo.NProcs,
			PPN:        topo.ProcsPerNode,
			Dir:        dir,
			Transport:  "tcp",
			ListenAddr: bind,
			NoSpawn:    true,
		})
		ch <- launched{cl, err}
	}()

	// Wait for the control listener before pointing workers at it.
	ok := false
	for i := 0; i < 200 && !ok; i++ {
		c, err := net.DialTimeout("tcp", bind, 100*time.Millisecond)
		if err == nil {
			c.Close()
			ok = true
		} else {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatalf("coordinator control listener never came up on %s", bind)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, topo.NProcs)
	for rank := 0; rank < topo.NProcs; rank++ {
		params, err := json.Marshal(ipcrt.WorkerParams{
			Rank:      rank,
			NP:        topo.NProcs,
			PPN:       topo.ProcsPerNode,
			Dir:       dir,
			CoordAddr: "tcp:" + bind,
			Transport: "tcp",
		})
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envTestJoin+"="+string(params))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting join worker %d: %v", rank, err)
		}
		cmds[rank] = cmd
	}

	var cl *ipcrt.Cluster
	select {
	case l := <-ch:
		if l.err != nil {
			t.Fatalf("Launch(NoSpawn): %v", l.err)
		}
		cl = l.cl
	case <-time.After(60 * time.Second):
		t.Fatal("Launch(NoSpawn) never returned")
	}
	defer cl.Close()
	if got := cl.Addr(); got != "tcp:"+bind {
		t.Fatalf("Addr() = %q, want %q", got, "tcp:"+bind)
	}

	spec := ipcrt.DefaultSpec(64, 48, 56)
	spec.Case = int(core.NT)
	spec.ReturnC = true
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
				t.Fatalf("rank %d element %d: joined %v != armci %v (bit difference)",
					rank, i, res.C[i], want[rank][i])
			}
		}
	}

	cl.Close()
	for rank, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("joined worker %d did not exit cleanly: %v", rank, err)
		}
	}
}
