// Command srumma-plan prints one process's SRUMMA execution plan — the
// task list of paper §3.1 made inspectable: which blocks of A and B the
// process multiplies, in what order (shared-memory tasks first, remote
// tasks along the diagonal shift), which tasks access operands directly vs
// through the double-buffered fetch pipeline, and the resulting fetch
// schedule with its buffer assignments.
//
// Usage:
//
//	srumma-plan -n 600 -procs 16 -ppn 4 -rank 0
//	srumma-plan -n 600 -procs 16 -ppn 4 -rank 0 -case TT -noshift
package main

import (
	"flag"
	"fmt"
	"log"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/rt"
)

// The flags live at package level so the drift test can walk flag.CommandLine.
var (
	n             = flag.Int("n", 600, "matrix size (N x N x N)")
	procs         = flag.Int("procs", 16, "process count")
	ppn           = flag.Int("ppn", 4, "processes per shared-memory node")
	rank          = flag.Int("rank", 0, "rank whose plan to print")
	shared        = flag.Bool("shared-machine", false, "one machine-wide shared-memory domain")
	caseName      = flag.String("case", "NN", "transpose case: NN, TN, NT, TT")
	noshift       = flag.Bool("noshift", false, "disable the diagonal-shift ordering")
	nosharedfirst = flag.Bool("nosharedfirst", false, "disable shared-memory-first ordering")
	maxK          = flag.Int("maxk", 0, "task-granularity cap along k (0 = whole blocks)")
	hierOn        = flag.Bool("hier", false, "also print the two-level (hierarchical) topology and outer panel schedule")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srumma-plan: ")
	flag.Parse()

	var cs core.Case
	switch *caseName {
	case "NN":
		cs = core.NN
	case "TN":
		cs = core.TN
	case "NT":
		cs = core.NT
	case "TT":
		cs = core.TT
	default:
		log.Fatalf("unknown case %q", *caseName)
	}
	topo := rt.Topology{NProcs: *procs, ProcsPerNode: *ppn, DomainSpansMachine: *shared}
	if err := topo.Validate(); err != nil {
		log.Fatal(err)
	}
	if *rank < 0 || *rank >= *procs {
		log.Fatalf("rank %d outside [0,%d)", *rank, *procs)
	}
	g, err := grid.Square(*procs)
	if err != nil {
		log.Fatal(err)
	}
	d := core.Dims{M: *n, N: *n, K: *n}
	opts := core.Options{
		Case:            cs,
		NoDiagonalShift: *noshift,
		NoSharedFirst:   *nosharedfirst,
		MaxTaskK:        *maxK,
	}
	tasks := core.Plan(topo, *rank, g, d, opts)

	row, col := g.Coords(*rank)
	fmt.Printf("plan for rank %d = P(%d,%d) on a %dx%d grid, node %d (domain %d)\n",
		*rank, row, col, g.P, g.Q, topo.NodeOf(*rank), topo.DomainOf(*rank))
	fmt.Printf("%s, %dx%dx%d, %d tasks\n\n", cs, *n, *n, *n, len(tasks))

	fmt.Printf("%4s %5s  %-22s %-22s %-18s %s\n", "#", "kIdx", "A operand", "B operand", "C view", "flags")
	nShared, nFetchA, nFetchB := 0, 0, 0
	for i, t := range tasks {
		aAcc, bAcc := "fetch", "fetch"
		if t.ADirect {
			aAcc = "direct"
		} else {
			nFetchA++
		}
		if t.BDirect {
			bAcc = "direct"
		} else {
			nFetchB++
		}
		if t.ADirect && t.BDirect {
			nShared++
		}
		flags := ""
		if t.First {
			flags = "first(beta=0)"
		}
		fmt.Printf("%4d %5d  r%-3d %-6s %dx%d@(%d,%d)  r%-3d %-6s %dx%d@(%d,%d)  (%d,%d)+%dx%d  %s\n",
			i, t.KIdx,
			t.AOwner, aAcc, t.ASubR, t.ASubC, t.ASubI, t.ASubJ,
			t.BOwner, bAcc, t.BSubR, t.BSubC, t.BSubI, t.BSubJ,
			t.CI, t.CJ, t.CR, t.CC, flags)
	}
	fmt.Printf("\n%d tasks fully in shared memory (run first, warming the pipeline)\n", nShared)
	fmt.Printf("%d A fetches, %d B fetches through the double-buffered nonblocking pipeline\n", nFetchA, nFetchB)

	// Node spread of the first remote fetch per node-mate: the diagonal
	// shift's contention story.
	fmt.Printf("\nfirst remote A-fetch target node, per rank on node %d:\n", topo.NodeOf(*rank))
	base := topo.NodeOf(*rank) * *ppn
	for r := base; r < base+*ppn && r < *procs; r++ {
		rtasks := core.Plan(topo, r, g, d, opts)
		target := -1
		for _, t := range rtasks {
			if !t.ADirect {
				target = topo.NodeOf(t.AOwner)
				break
			}
		}
		fmt.Printf("  rank %3d -> node %d\n", r, target)
	}

	if *hierOn {
		printHier(topo, g, *rank, d, opts)
	}
}

// printHier reports the two-level carving: the group grid, this rank's
// group and intra-group shape, the predicted communication volume per
// level (the group union against the flat pipeline's, split into what is
// staged once and what its only consumer fetches — hier pays only where the
// first is not zero), and the rank's group panel schedule in outer
// (group-level diagonal-shifted) order.
func printHier(topo rt.Topology, g *grid.Grid, rank int, d core.Dims, opts core.Options) {
	ht := hier.From(topo, g)
	fmt.Printf("\ntwo-level topology:\n")
	if err := ht.Validate(); err != nil {
		fmt.Printf("  hierarchical mode unavailable: %v\n", err)
		return
	}
	grp := ht.GroupOf(rank)
	gr, gc := ht.GroupShape(grp)
	lo, hi := ht.GroupRanks(grp)
	fmt.Printf("  %d groups x %d ranks; rank %d in group %d (ranks %d..%d), intra-group shape %dx%d\n",
		ht.NumGroups(), hi-lo, rank, grp, lo, hi-1, gr, gc)

	v := hier.PredictVolumes(ht, d, hier.Options{Options: opts})
	fmt.Printf("  predicted comm volume (elements):\n")
	fmt.Printf("    flat:  %12d remote  %12d shared\n", v.FlatRemote, v.FlatShared)
	fmt.Printf("    hier:  %12d remote  %12d shared\n", v.OuterRemote, v.OuterShared)
	fmt.Printf("           %12d staged once per group  %12d fetched by their only consumer  %12d band copy-outs\n",
		v.Staged, v.MemberFetch, v.InnerCopy)

	panels := hier.Schedule(ht, grp, d, hier.Options{Options: opts})
	fmt.Printf("  group %d outer panel schedule (%d panels):\n", grp, len(panels))
	for i, p := range panels {
		fmt.Printf("    panel %2d: owner group %2d, %3d regions, %9d elements, %9d staged\n",
			i, p.OwnerGroup, len(p.Regions), p.Elems, p.Staged)
	}
}
