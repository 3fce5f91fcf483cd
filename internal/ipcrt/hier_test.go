package ipcrt

import (
	"math"
	"testing"
	"time"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/rt"
)

// TestHierIPCBitIdentical crosses both axes of the hierarchical gate at
// once: the hierarchical path on the multi-process engine (groups = the
// emulated worker nodes) must produce bit-identical C blocks to the FLAT
// path on the in-process armci engine, for all four transpose cases. Any
// divergence in the outer staging, the band handoff, or the inner
// executor's operand bytes shows up here.
func TestHierIPCBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	cl := launchCluster(t, topo.NProcs, topo.ProcsPerNode)

	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		t.Run(cs.String(), func(t *testing.T) {
			spec := DefaultSpec(72, 60, 84)
			spec.Case = int(cs)
			spec.Beta = -0.25
			spec.MaxTaskK = 17
			spec.ReturnC = true
			spec.KernelThreads = 1
			spec.Hier = true

			results, err := cl.RunJob(spec, 2*time.Minute)
			if err != nil {
				t.Fatalf("RunJob: %v", err)
			}
			flat := *spec
			flat.Hier = false
			want := armciBlocks(t, topo, &flat)
			for rank, res := range results {
				if res.Err != "" {
					t.Fatalf("rank %d: %s", rank, res.Err)
				}
				if len(res.C) != len(want[rank]) {
					t.Fatalf("rank %d: C block has %d elements, flat armci has %d", rank, len(res.C), len(want[rank]))
				}
				for i := range res.C {
					if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
						t.Fatalf("rank %d element %d: hier ipc %v != flat armci %v (bit difference)",
							rank, i, res.C[i], want[rank][i])
					}
				}
			}
		})
	}
}

// TestHierIPCSharedBand runs the two-level path where it stages: 8 worker
// processes on two emulated nodes, each node one 2x2 group whose row-mates
// want the same remote blocks of A. With separate address spaces the band
// is a Malloc'd segment its members map, the staged regions are multiplied
// from those mappings in place, and the meters come back over the wire:
// bit-identical to flat armci, remote bytes exactly the predicted group
// union, and the predicted staged / member-fetched split.
func TestHierIPCSharedBand(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 8, ProcsPerNode: 4}
	cl := launchCluster(t, topo.NProcs, topo.ProcsPerNode)
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		spec := DefaultSpec(72, 60, 84)
		spec.Case = int(cs)
		spec.Beta = -0.25
		spec.MaxTaskK = 17
		spec.ReturnC = true
		spec.KernelThreads = 1
		spec.Hier = true

		results, err := cl.RunJob(spec, 2*time.Minute)
		if err != nil {
			t.Fatalf("%v: RunJob: %v", cs, err)
		}
		flat := *spec
		flat.Hier = false
		want := armciBlocks(t, topo, &flat)
		var sum rt.Stats
		for rank, res := range results {
			if res.Err != "" {
				t.Fatalf("%v rank %d: %s", cs, rank, res.Err)
			}
			if len(res.C) != len(want[rank]) {
				t.Fatalf("%v rank %d: C block has %d elements, flat armci has %d", cs, rank, len(res.C), len(want[rank]))
			}
			for i := range res.C {
				if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
					t.Fatalf("%v rank %d element %d: hier ipc %v != flat armci %v (bit difference)", cs, rank, i, res.C[i], want[rank][i])
				}
			}
			sum.Add(res.Stats)
		}
		v := hier.PredictVolumes(hier.From(topo, g), core.Dims{M: spec.M, N: spec.N, K: spec.K},
			hier.Options{Options: core.Options{Case: cs, MaxTaskK: spec.MaxTaskK}})
		if v.Staged == 0 {
			t.Fatalf("%v: the topology stages nothing", cs)
		}
		if sum.BytesRemote != 8*v.OuterRemote || sum.HierStagedBytes != 8*v.Staged || sum.HierMemberBytes != 8*v.MemberFetch {
			t.Errorf("%v: %d remote bytes, %d staged, %d member-fetched; predicted %d, %d, %d", cs,
				sum.BytesRemote, sum.HierStagedBytes, sum.HierMemberBytes, 8*v.OuterRemote, 8*v.Staged, 8*v.MemberFetch)
		}
	}
}
