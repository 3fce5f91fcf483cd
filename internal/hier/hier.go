// Package hier implements the hierarchical two-level multiplication:
// group-level SUMMA over SRUMMA teams (Quintin, Hasanov & Lastovetsky,
// arXiv:1306.4161, composed with the paper's flat SRUMMA).
//
// Ranks are partitioned into GROUPS — shared-memory domains by default,
// carved finer when rt.Topology.GroupSize says so. Each group plans the
// deduplicated union of the sub-blocks its members' task lists will fetch
// (core.GroupFetchPlan), and the OUTER level moves a region through the
// group only when that removes traffic. A region two members need (or one
// would fetch twice) is STAGED: pulled exactly once with a one-sided get
// into a band the members share, the work split across them in a DIMMA-style
// panel order (summa.ScheduleOrder, rotated by the requesting group's
// diagonal shift). A region fetched once is left to its consumer's ordinary
// double-buffered pipeline, overlapped with compute — where nothing is
// shared, the two-level path is the flat data path.
//
// The INNER level is the untouched flat SRUMMA executor (core.MultiplyEx)
// on a ctx wrapper that knows the band. A staged region gets the paper's two
// flavours, chosen by core.Options.Flavor: FlavorDirect multiplies it in
// place from the band like any in-domain block, FlavorCopy copies it out
// into the executor's fetch buffer. Task lists, their order and every Gemm
// operand value are exactly the flat plan's, so the result is bit-identical
// to flat SRUMMA; what changes is volume — a staged region crosses the
// interconnect once instead of once per fetch (TestSimVolumesMatchPrediction
// pins the sweep over P; srumma-plan -hier shows a shape's split).
//
// Where the engine adopts caller memory (rt.Adopter) the band lives across
// calls: members publish pooled, UNZEROED slices. A member reads the band
// only where the plan put a staged region, and all of that is overwritten by
// its staging get before the publishing barrier. Other engines allocate it.
//
// À la COSMA (arXiv:1908.09606) the composite grid need not be square:
// Choose evaluates every P×Q factorization by exact predicted inter-group
// volume for the given M×N×K shape and picks the cheapest.
package hier

import (
	"fmt"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/rt"
	"srumma/internal/summa"
)

// Topo is the two-level topology: the composite process grid the flat plan
// runs on, plus the group structure (carried by rt.Topology) the outer
// level schedules across.
type Topo struct {
	rt.Topology
	Grid *grid.Grid
}

// From builds a two-level topology over an explicit composite grid. The
// group size comes from topo (0 = shared-memory domains).
func From(topo rt.Topology, g *grid.Grid) Topo {
	return Topo{Topology: topo, Grid: g}
}

// Validate checks the two-level topology: a usable flat topology, a grid
// matching the rank count, and groups that nest inside shared-memory
// domains — the precondition for members to read the staged band by direct
// load/store.
func (t Topo) Validate() error {
	if err := t.Topology.Validate(); err != nil {
		return err
	}
	if t.Grid == nil || t.Grid.Size() != t.NProcs {
		return fmt.Errorf("hier: grid does not cover %d ranks", t.NProcs)
	}
	if !t.GroupsNestInDomains() {
		return fmt.Errorf("hier: groups of %d ranks straddle shared-memory domains (%d per node)",
			t.GroupSize, t.ProcsPerNode)
	}
	return nil
}

// GroupShape returns the intra-group shape of group grp on the composite
// grid: how many distinct grid rows and columns its members occupy.
func (t Topo) GroupShape(grp int) (rows, cols int) {
	lo, hi := t.GroupRanks(grp)
	seenR := map[int]bool{}
	seenC := map[int]bool{}
	for m := lo; m < hi; m++ {
		r, c := t.Grid.Coords(m)
		seenR[r] = true
		seenC[c] = true
	}
	return len(seenR), len(seenC)
}

// Options configure the hierarchical multiply. The embedded core.Options
// are handed to the inner flat executor unchanged (that is what makes the
// result bit-identical to flat SRUMMA under the same options).
type Options struct {
	core.Options
	// NoOuterShift disables the group-level diagonal rotation of the outer
	// panel schedule (ablation; flat SRUMMA's Figure 4 argument applied to
	// groups).
	NoOuterShift bool
}

// Panel is one outer-level step of the group schedule: every region of the
// group's fetch plan owned by one group, streamed back to back DIMMA-style.
// Staged of its Elems are in Shared regions and go through the band.
type Panel struct {
	OwnerGroup int
	Regions    []core.GroupRegion
	Elems      int
	Staged     int
}

// Schedule plans group grp's outer level: the regions of
// core.GroupFetchPlan arranged into per-owner-group panels, with the owner
// sequence rotated by grp (the group-level diagonal shift) unless
// NoOuterShift. Deterministic — every member of grp computes the same
// schedule, which is what lets the staging work be split without
// negotiation.
func Schedule(t Topo, grp int, d core.Dims, opts Options) []Panel {
	return panels(t, grp, opts, core.GroupFetchPlan(t.Topology, grp, t.Grid, d, opts.Options, nil, nil))
}

// panels arranges a group's fetch plan into the outer schedule. The
// arrangement reads only each region's owner, so it is the same whatever
// leading dimension the regions were planned against.
func panels(t Topo, grp int, opts Options, regions []core.GroupRegion) []Panel {
	if len(regions) == 0 {
		return nil
	}
	nG := t.NumGroups()
	rot := 0
	if !opts.NoOuterShift {
		rot = grp % nG
	}
	order := summa.ScheduleOrder(len(regions),
		func(i int) int { return t.GroupOf(regions[i].Owner) }, nG, rot, true)
	byGroup := make(map[int]*Panel)
	var out []Panel
	for _, i := range order {
		og := t.GroupOf(regions[i].Owner)
		p := byGroup[og]
		if p == nil {
			out = append(out, Panel{OwnerGroup: og})
			p = &out[len(out)-1]
			byGroup[og] = p
		}
		p.Regions = append(p.Regions, regions[i])
		p.Elems += regions[i].Elems()
		if regions[i].Shared() {
			p.Staged += regions[i].Elems()
		}
	}
	return out
}

// Volumes is the predicted communication volume of one multiply, in
// float64 elements, split by level. Flat* is what flat SRUMMA moves (every
// rank fetches for itself); Outer* is what the two-level path moves, the
// per-group union, which Staged/MemberFetch split by issuer; InnerCopy is
// what is copied out of the band again.
type Volumes struct {
	FlatRemote  int64 `json:"flat_remote"`  // flat: fetched across domains
	FlatShared  int64 `json:"flat_shared"`  // flat: fetched within a domain
	OuterRemote int64 `json:"outer_remote"` // hier: fetched across domains
	OuterShared int64 `json:"outer_shared"` // hier: fetched within a domain
	Staged      int64 `json:"staged"`       // hier: of Outer*, staged into a band
	MemberFetch int64 `json:"member_fetch"` // hier: of Outer*, fetched by the one consumer
	InnerCopy   int64 `json:"inner_copy"`   // hier: band copy-outs (FlavorCopy only)
}

// PredictVolumes computes the per-level communication volumes analytically
// from the fetch plans — no engine run needed. The flat numbers use the
// executor's exact issue sequence (including its buffer-reuse dedup), so
// "OuterRemote < FlatRemote" here is the same comparison the virtual-time
// sweep measures.
func PredictVolumes(t Topo, d core.Dims, opts Options) Volumes {
	var v Volumes
	for me := 0; me < t.NProcs; me++ {
		for _, r := range core.RankFetches(t.Topology, me, t.Grid, d, opts.Options) {
			if t.SameDomain(me, r.Owner) {
				v.FlatShared += int64(r.Elems())
			} else {
				v.FlatRemote += int64(r.Elems())
			}
		}
	}
	for grp := 0; grp < t.NumGroups(); grp++ {
		lo, _ := t.GroupRanks(grp)
		for _, p := range Schedule(t, grp, d, opts) {
			v.Staged += int64(p.Staged)
			v.MemberFetch += int64(p.Elems - p.Staged)
			for _, r := range p.Regions {
				if t.SameDomain(lo, r.Owner) {
					v.OuterShared += int64(r.Elems())
				} else {
					v.OuterRemote += int64(r.Elems())
				}
				if r.Shared() && opts.Flavor == core.FlavorCopy {
					v.InnerCopy += int64(r.Elems() * r.Fetches)
				}
			}
		}
	}
	return v
}

// Choose picks the composite grid for an M×N×K shape the COSMA way: every
// P×Q factorization of the rank count is evaluated by exact predicted
// inter-group volume (PredictVolumes.OuterRemote, then OuterShared) and
// the cheapest wins; the square-ish default keeps ties. Use From with
// grid.Square instead when the result must be bit-comparable to a flat run
// on the default square-ish grid.
func Choose(topo rt.Topology, d core.Dims, opts Options) (Topo, error) {
	sq, err := grid.Square(topo.NProcs)
	if err != nil {
		return Topo{}, err
	}
	best := From(topo, sq)
	bestV := PredictVolumes(best, d, opts)
	for p := 1; p <= topo.NProcs; p++ {
		if topo.NProcs%p != 0 {
			continue
		}
		cand := From(topo, &grid.Grid{P: p, Q: topo.NProcs / p})
		v := PredictVolumes(cand, d, opts)
		if v.OuterRemote < bestV.OuterRemote ||
			(v.OuterRemote == bestV.OuterRemote && v.OuterShared < bestV.OuterShared) {
			best, bestV = cand, v
		}
	}
	return best, nil
}
