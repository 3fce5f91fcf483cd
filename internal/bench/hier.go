package bench

// The hierarchical sweep: flat SRUMMA vs the two-level multiply
// (internal/hier) across process counts on the virtual-time engine. Both
// paths run the SAME inner task list, so the comparison isolates data
// movement: the flat double-buffered pipeline's per-rank remote gets vs
// the outer level's group union — shared regions staged once, the rest
// fetched by their only consumer. The sweep reports measured remote bytes
// (which the sim engine charges exactly — they equal hier.PredictVolumes
// * 8), modeled wall time, and the crossover: the smallest P where the
// hierarchical volume strictly beats flat. Below the crossover each
// shared-memory domain coincides with one grid row/column and no two
// node-mates want the same remote region, so nothing is staged and the
// volumes tie.

import (
	"fmt"
	"strings"

	"srumma/internal/core"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/machine"
	"srumma/internal/rt"
)

// HierRow is one process count of the flat-vs-hierarchical sweep.
type HierRow struct {
	Procs      int    `json:"p"`
	Grid       string `json:"grid"`
	Groups     int    `json:"groups"`
	GroupShape string `json:"group_shape"`

	// Measured on the virtual-time engine, summed over ranks.
	FlatRemoteBytes int64   `json:"flat_remote_bytes"`
	HierRemoteBytes int64   `json:"hier_remote_bytes"`
	FlatSeconds     float64 `json:"flat_s"`
	HierSeconds     float64 `json:"hier_s"`

	// Predicted per-level volumes in elements (hier.PredictVolumes); the
	// measured byte counts above are exactly 8x the remote entries.
	Predicted hier.Volumes `json:"predicted"`

	// VolumeRatio is hier/flat remote bytes (1.0 = tie, <1 = hier wins).
	VolumeRatio float64 `json:"volume_ratio"`
}

// HierSweepDoc is the BENCH_hier.json document: the sweep configuration,
// its rows, and the observed crossover.
type HierSweepDoc struct {
	Platform string `json:"platform"`
	N        int    `json:"n"`
	PPN      int    `json:"ppn"`
	Case     string `json:"case"`

	// CrossoverP is the smallest swept P where the hierarchical remote
	// volume strictly beats flat (0 = never within the sweep). Below it
	// the two tie: groups coincide with single grid rows/columns and the
	// outer level has nothing to deduplicate.
	CrossoverP int `json:"crossover_p"`

	Rows []HierRow `json:"rows"`
}

// HierSweep runs flat and hierarchical SRUMMA for each P on the
// virtual-time engine and verifies the measured remote traffic against
// the analytic per-level volumes.
func HierSweep(prof machine.Profile, n int, procs []int) (*HierSweepDoc, error) {
	doc := &HierSweepDoc{
		Platform: prof.Name,
		N:        n,
		PPN:      prof.ProcsPerNode,
		Case:     core.NN.String(),
	}
	d := core.Dims{M: n, N: n, K: n}
	for _, p := range procs {
		flat, err := RunMatmul(MatmulConfig{Platform: prof, Procs: p, Dims: d, Alg: AlgSRUMMA})
		if err != nil {
			return nil, fmt.Errorf("flat P=%d: %w", p, err)
		}
		hr, err := RunMatmul(MatmulConfig{Platform: prof, Procs: p, Dims: d, Alg: AlgHier})
		if err != nil {
			return nil, fmt.Errorf("hier P=%d: %w", p, err)
		}
		topo := rt.Topology{
			NProcs:             p,
			ProcsPerNode:       prof.ProcsPerNode,
			DomainSpansMachine: prof.DomainSpansMachine,
		}
		// Predict on the same square grid the measured runs used (Choose
		// may prefer a non-square carving; the exactness check below needs
		// model and measurement on identical grids).
		g, err := grid.Square(p)
		if err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
		ht := hier.From(topo, g)
		gr, gc := ht.GroupShape(0)
		row := HierRow{
			Procs:           p,
			Grid:            fmt.Sprintf("%dx%d", ht.Grid.P, ht.Grid.Q),
			Groups:          ht.NumGroups(),
			GroupShape:      fmt.Sprintf("%dx%d", gr, gc),
			FlatRemoteBytes: flat.Stats.BytesRemote,
			HierRemoteBytes: hr.Stats.BytesRemote,
			FlatSeconds:     flat.Seconds,
			HierSeconds:     hr.Seconds,
			Predicted:       hier.PredictVolumes(ht, d, hier.Options{Options: core.Options{Flavor: flavorFor(prof)}}),
		}
		if row.FlatRemoteBytes > 0 {
			row.VolumeRatio = float64(row.HierRemoteBytes) / float64(row.FlatRemoteBytes)
		}
		// The sim engine charges every remote byte, so measurement and
		// model must agree exactly; a mismatch means the staging plan and
		// the executor disagreed about some fetch.
		if row.FlatRemoteBytes != 8*row.Predicted.FlatRemote {
			return nil, fmt.Errorf("P=%d: flat measured %d B != predicted %d B",
				p, row.FlatRemoteBytes, 8*row.Predicted.FlatRemote)
		}
		if row.HierRemoteBytes != 8*row.Predicted.OuterRemote {
			return nil, fmt.Errorf("P=%d: hier measured %d B != predicted %d B",
				p, row.HierRemoteBytes, 8*row.Predicted.OuterRemote)
		}
		if row.HierRemoteBytes > row.FlatRemoteBytes {
			return nil, fmt.Errorf("P=%d: hierarchical remote volume %d exceeds flat %d",
				p, row.HierRemoteBytes, row.FlatRemoteBytes)
		}
		if doc.CrossoverP == 0 && row.HierRemoteBytes < row.FlatRemoteBytes {
			doc.CrossoverP = p
		}
		doc.Rows = append(doc.Rows, row)
	}
	return doc, nil
}

// FormatHier renders the sweep as the human table.
func FormatHier(doc *HierSweepDoc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hierarchical sweep: flat vs two-level SRUMMA, %s, N=%d, ppn=%d\n",
		doc.Platform, doc.N, doc.PPN)
	fmt.Fprintf(&b, "%6s %8s %14s %12s %14s %14s %8s %10s %10s\n",
		"P", "grid", "groups", "shape", "flat remote", "hier remote", "ratio", "flat s", "hier s")
	for _, r := range doc.Rows {
		fmt.Fprintf(&b, "%6d %8s %14d %12s %14d %14d %8.3f %10.4g %10.4g\n",
			r.Procs, r.Grid, r.Groups, r.GroupShape,
			r.FlatRemoteBytes, r.HierRemoteBytes, r.VolumeRatio,
			r.FlatSeconds, r.HierSeconds)
	}
	if doc.CrossoverP > 0 {
		fmt.Fprintf(&b, "crossover: hierarchical volume strictly beats flat from P=%d\n", doc.CrossoverP)
	} else {
		fmt.Fprintf(&b, "crossover: not reached within the sweep (volumes tie)\n")
	}
	return b.String()
}
