package core

// Group-level fetch planning: the bridge between the flat per-rank task
// lists and the hierarchical two-level multiplication (internal/hier).
//
// A flat SRUMMA rank fetches every non-direct operand sub-block itself, so
// ranks that share a node repeatedly pull the same remote region over the
// interconnect. The hierarchical outer level instead stages what a group's
// members share once per group. The exported plan here is the union of
// their fetches: the exact (matrix, owner, off, ld, rows, cols) tuples group
// members' executors will request, deduplicated and counted, in
// deterministic first-need order. Because the tuples are derived from the
// same Task geometry the executor uses, a staged copy can be substituted for
// the engine fetch byte-for-byte.

import (
	"srumma/internal/grid"
	"srumma/internal/rt"
)

// Matrix identifiers for FetchRegion.
const (
	MatA = 0
	MatB = 1
)

// FetchRegion is one distinct strided sub-block a rank's executor fetches
// with NbGetSub: the one-sided get against the owner's segment of matrix
// Matrix (MatA or MatB), starting at element Off with row stride LD,
// Rows x Cols elements.
type FetchRegion struct {
	Matrix     int
	Owner      int
	Off, LD    int
	Rows, Cols int
}

// Elems returns the number of elements the region moves.
func (r FetchRegion) Elems() int { return r.Rows * r.Cols }

func regionOf(matrix int, it fetchItem) FetchRegion {
	return FetchRegion{Matrix: matrix, Owner: it.owner, Off: it.off, LD: it.ld, Rows: it.rows, Cols: it.cols}
}

// RankFetches returns the exact sequence of fetch regions rank me's
// executor will issue for its task list, in issue order, after the
// consecutive-task and double-buffer-slot reuse the executor applies, for
// operands stored tight (a wider leading dimension moves each region's Off
// and LD, never which regions are fetched or their size). The sum of Elems
// over the result is the rank's flat communication volume in elements
// (remote or intra-domain copy, depending on each owner).
func RankFetches(topo rt.Topology, me int, g *grid.Grid, d Dims, opts Options) []FetchRegion {
	tasks := Plan(topo, me, g, d, opts)
	_, sa, sb := fetchSchedules(tasks, opts.SingleBuffer, nil, nil, nil)
	out := make([]FetchRegion, 0, len(sa.items)+len(sb.items))
	for _, it := range sa.items {
		out = append(out, regionOf(MatA, it))
	}
	for _, it := range sb.items {
		out = append(out, regionOf(MatB, it))
	}
	return out
}

// GroupRegion is one region of a group's fetch plan and how often the
// members' flat executors would fetch it between them.
type GroupRegion struct {
	FetchRegion
	Fetches int
}

// Shared reports whether staging the region once for the group removes
// traffic: two members need it, or one would fetch it twice. Fetched once,
// it is left to its only consumer, who overlaps the fetch with compute.
func (r GroupRegion) Shared() bool { return r.Fetches > 1 }

// GroupFetchPlan plans against the sub-grid owned by group grp (per
// topo.GroupRanks): it returns the deduplicated union of the fetch regions
// every member's executor will request from the operands ga and gb (nil =
// stored tight), in first-need order (members ascending, each member's
// issue order within), each with its fetch count. Staging the Shared ones
// once per group is exactly the inter-group communication the two-level
// scheme saves over flat SRUMMA.
func GroupFetchPlan(topo rt.Topology, grp int, g *grid.Grid, d Dims, opts Options, ga, gb rt.Global) []GroupRegion {
	lo, hi := topo.GroupRanks(grp)
	at := make(map[FetchRegion]int)
	var out []GroupRegion
	add := func(r FetchRegion) {
		i, ok := at[r]
		if !ok {
			i = len(out)
			at[r] = i
			out = append(out, GroupRegion{FetchRegion: r})
		}
		out[i].Fetches++
	}
	for m := lo; m < hi; m++ {
		tasks := Plan(topo, m, g, d, opts)
		_, sa, sb := fetchSchedules(tasks, opts.SingleBuffer, ga, gb, nil)
		// A task's fetch index beyond every earlier one is a new issue.
		ia, ib := -1, -1
		for ti := range tasks {
			if fi := sa.ofTask[ti]; fi > ia {
				ia = fi
				add(regionOf(MatA, sa.items[fi]))
			}
			if fi := sb.ofTask[ti]; fi > ib {
				ib = fi
				add(regionOf(MatB, sb.items[fi]))
			}
		}
	}
	return out
}
