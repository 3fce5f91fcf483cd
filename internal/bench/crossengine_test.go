package bench

// Cross-engine consistency: the real (armci) and virtual-time (simrt)
// engines run the SAME algorithm code: each row of the one algorithm table
// (internal/algs), placed the same way. So the communication an algorithm
// performs (bytes moved by protocol class, get/put/message counts) must
// be IDENTICAL on both engines for identical topologies. Only the clock
// differs. This pins the two engines together: a protocol-accounting bug in
// either one breaks the equality.

import (
	"testing"

	"srumma/internal/algs"
	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

// commSignature is the engine-independent communication footprint.
type commSignature struct {
	BytesShared, BytesRemote int64
	GetsShared, GetsRemote   int64
	Puts, Msgs, MsgBytes     int64
}

func signature(stats []*rt.Stats) commSignature {
	var agg rt.Stats
	for _, s := range stats {
		agg.Add(s)
	}
	return commSignature{
		BytesShared: agg.BytesShared,
		BytesRemote: agg.BytesRemote,
		GetsShared:  agg.GetsShared,
		GetsRemote:  agg.GetsRemote,
		Puts:        agg.Puts,
		Msgs:        agg.Msgs,
		MsgBytes:    agg.MsgBytes,
	}
}

// engineRun is one table row run with nothing loaded — the placement every
// caller without operands uses.
func engineRun(t *testing.T, name string, g *grid.Grid, d core.Dims, o algs.Options) func(rt.Ctx) {
	t.Helper()
	row, err := algs.Resolve(name, g, d, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return func(c rt.Ctx) {
		ga, gb, gc := row.Alloc(c)
		if err := row.Multiply(c, ga, gb, gc); err != nil {
			panic(err)
		}
	}
}

func TestEnginesAgreeOnCommunication(t *testing.T) {
	prof := machine.LinuxMyrinet() // ppn=2, cluster domains
	topo := rt.Topology{NProcs: 8, ProcsPerNode: prof.ProcsPerNode, DomainSpansMachine: prof.DomainSpansMachine}
	g, _ := grid.Square(8)
	d := core.Dims{M: 48, N: 40, K: 56}
	// Square-grid algorithms need a square process count.
	gSq, _ := grid.New(2, 2)
	topoSq := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	dSq := core.Dims{M: 20, N: 20, K: 20}

	for _, name := range algs.Names {
		topo, g, d, o := topo, g, d, algs.Options{NB: 8}
		switch name {
		case algs.SRUMMA:
			o.Case = core.TN
		case algs.Pdgemm:
			o.Case = core.NT
		case algs.Cannon, algs.Fox:
			topo, g, d = topoSq, gSq, dSq
		}
		body := engineRun(t, name, g, d, o)
		realStats, err := armci.Run(topo, body)
		if err != nil {
			t.Fatalf("%s real: %v", name, err)
		}
		simRes, err := simrt.Run(prof, topo.NProcs, body)
		if err != nil {
			t.Fatalf("%s sim: %v", name, err)
		}
		if rs, ss := signature(realStats), signature(simRes.Stats); rs != ss {
			t.Errorf("%s: engines disagree:\n real %+v\n sim  %+v", name, rs, ss)
		}
	}
}

// TestEnginesAgreePerRank sharpens the aggregate check to per-rank
// equality for a fixed SRUMMA plan: the executor's fetch schedule is
// deterministic, so each rank must issue the same shared-domain gets,
// remote gets and messages on both engines. This guards the observability
// refactor (rt.Stats is now a view over internal/obs meters) against
// silently changing what the counters mean.
func TestEnginesAgreePerRank(t *testing.T) {
	prof := machine.LinuxMyrinet()
	topo := rt.Topology{NProcs: 8, ProcsPerNode: prof.ProcsPerNode, DomainSpansMachine: prof.DomainSpansMachine}
	g, _ := grid.Square(8)
	d := core.Dims{M: 40, N: 48, K: 32}
	body := engineRun(t, algs.SRUMMA, g, d, algs.Options{})
	realStats, err := armci.Run(topo, body)
	if err != nil {
		t.Fatalf("real: %v", err)
	}
	simRes, err := simrt.Run(prof, topo.NProcs, body)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	anyComm := false
	for r := 0; r < topo.NProcs; r++ {
		re, si := realStats[r], simRes.Stats[r]
		if re.GetsShared != si.GetsShared || re.GetsRemote != si.GetsRemote || re.Msgs != si.Msgs {
			t.Errorf("rank %d: real gets(shared/remote)=%d/%d msgs=%d, sim %d/%d msgs=%d",
				r, re.GetsShared, re.GetsRemote, re.Msgs, si.GetsShared, si.GetsRemote, si.Msgs)
		}
		if re.BytesShared != si.BytesShared || re.BytesRemote != si.BytesRemote {
			t.Errorf("rank %d: real bytes(shared/remote)=%d/%d, sim %d/%d",
				r, re.BytesShared, re.BytesRemote, si.BytesShared, si.BytesRemote)
		}
		if re.GetsShared+re.GetsRemote > 0 {
			anyComm = true
		}
	}
	if !anyComm {
		t.Fatal("plan produced no gets at all; parity check is vacuous")
	}
}
