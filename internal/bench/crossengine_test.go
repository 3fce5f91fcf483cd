package bench

// Cross-engine consistency: the real (armci) and virtual-time (simrt)
// engines run the SAME algorithm code, so the communication an algorithm
// performs — bytes moved by protocol class, get/put/message counts — must
// be IDENTICAL on both engines for identical topologies. Only the clock
// differs. This pins the two engines together: a protocol-accounting bug in
// either one breaks the equality.

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/cannon"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/fox"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/pdgemm"
	"srumma/internal/rt"
	"srumma/internal/simrt"
	"srumma/internal/summa"
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

func TestEnginesAgreeOnCommunication(t *testing.T) {
	prof := machine.LinuxMyrinet() // ppn=2, cluster domains
	topo := rt.Topology{NProcs: 8, ProcsPerNode: prof.ProcsPerNode, DomainSpansMachine: prof.DomainSpansMachine}
	g, _ := grid.Square(8)
	d := core.Dims{M: 48, N: 40, K: 56}

	type algo struct {
		name string
		body func(c rt.Ctx)
	}
	algos := []algo{
		{"srumma", func(c rt.Ctx) {
			da, db, dc := core.Dists(g, d, core.TN)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			if err := core.Multiply(c, g, d, core.Options{Case: core.TN}, ga, gb, gc); err != nil {
				panic(err)
			}
		}},
		{"summa", func(c rt.Ctx) {
			da, db, dc := summa.Dists(g, d, core.NN)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			if err := summa.Multiply(c, g, d, summa.Options{NB: 8}, ga, gb, gc); err != nil {
				panic(err)
			}
		}},
		{"pdgemm", func(c rt.Ctx) {
			da, db, dc, err := pdgemm.Dists(g, d, core.NT, 8)
			if err != nil {
				panic(err)
			}
			ga := driver.AllocCyclic(c, da)
			gb := driver.AllocCyclic(c, db)
			gc := driver.AllocCyclic(c, dc)
			if err := pdgemm.Multiply(c, g, d, pdgemm.Options{Case: core.NT, NB: 8}, ga, gb, gc); err != nil {
				panic(err)
			}
		}},
	}
	// Square-grid algorithms need a square process count.
	gSq, _ := grid.New(2, 2)
	topoSq := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	dSq := core.Dims{M: 20, N: 20, K: 20}
	algosSq := []algo{
		{"cannon", func(c rt.Ctx) {
			da, db, dc := cannon.Dists(gSq, dSq)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			if err := cannon.Multiply(c, gSq, dSq, ga, gb, gc); err != nil {
				panic(err)
			}
		}},
		{"fox", func(c rt.Ctx) {
			da, db, dc := fox.Dists(gSq, dSq)
			ga := driver.AllocBlock(c, da)
			gb := driver.AllocBlock(c, db)
			gc := driver.AllocBlock(c, dc)
			if err := fox.Multiply(c, gSq, dSq, ga, gb, gc); err != nil {
				panic(err)
			}
		}},
	}

	check := func(name string, topo rt.Topology, body func(rt.Ctx)) {
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
	for _, a := range algos {
		check(a.name, topo, a.body)
	}
	for _, a := range algosSq {
		check(a.name, topoSq, a.body)
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
	body := func(c rt.Ctx) {
		da, db, dc := core.Dists(g, d, core.NN)
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		if err := core.Multiply(c, g, d, core.Options{}, ga, gb, gc); err != nil {
			panic(err)
		}
	}
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
