package main

import (
	"fmt"
	"math"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs: the gated
// workloads, and each end-to-end metric's direction and the share of the old
// median by which it may worsen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are the per-layer numbers that follow from the inputs alone and
// must repeat bit for bit between two runs of the same benchmark.
var exactCounts = []string{
	"mat.ops_per_byte",
	"armci.bytes_remote_per_op", "armci.bytes_shared_per_op", "armci.gets_remote_per_op",
	"core.tasks_per_op",
	"hier.bytes_remote_per_op", "hier.volume_ratio",
	"server.bytes_in_per_op", "server.bytes_out_per_op", "server.cache_hit_ratio", "server.route_share",
	"cluster.shipped_bytes_per_op",
}

// setupFloor is the absolute change below which setup_s never counts as moved:
// most set-ups here take a few tens of milliseconds, where a relative bound
// alone would gate scheduler jitter.
const setupFloor = 0.050 // s

// verdict judges one metric: how much worse new is than old as a share of
// old (negative = better), and whether either side's own quartile spread
// exceeds the bound, in which case the pair cannot be resolved. A change
// smaller than floor in absolute terms is no change.
func verdict(better string, bound, floor, oldV, newV, oldSpread, newSpread float64) (worse float64, word string) {
	worse = (newV - oldV) / math.Abs(oldV)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case math.Abs(newV-oldV) <= floor:
		word = "unchanged"
	case oldSpread > bound || newSpread > bound:
		word = "unresolved"
	case worse > bound:
		word = "REGRESSION"
	case worse < -bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	return worse, word
}

func spreadOf(wr *workloadResult, name string) float64 {
	if len(wr.Runs[name]) < 2 {
		return 0 // a single run states no spread
	}
	return spread(wr.Runs[name])
}

// compareFiles prints one row per (workload, metric) with both medians and the
// ratio with its base, and returns a non-zero exit code on any regression or
// any exact count that moved.
func compareFiles(oldPath, newPath string) int {
	var spec benchmarkSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		fail(err)
	}
	var older, newer resultFile
	if err := readJSON(oldPath, &older); err != nil {
		fail(err)
	}
	if err := readJSON(newPath, &newer); err != nil {
		fail(err)
	}
	fmt.Printf("old: %s  commit %s  %s  %s\nnew: %s  commit %s  %s  %s\n",
		oldPath, older.Env.Commit, older.Env.CPU, older.Env.Date, newPath, newer.Env.Commit, newer.Env.CPU, newer.Env.Date)
	// BENCHMARK.json's workloads are gated; any other workload either file
	// holds is compared too, for information only.
	gated := map[string]bool{}
	for _, w := range spec.Workloads {
		gated[w.Name] = true
	}
	seen := map[string]bool{}
	var names []string
	for _, file := range []resultFile{older, newer} {
		for n := range file.Workloads {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	bad := 0
	fmt.Printf("%-20s %-16s %14s %14s %18s  %s\n", "workload", "metric", "old", "new", "new/old (base old)", "verdict (bound)")
	for _, wn := range names {
		ow, nw := older.Workloads[wn], newer.Workloads[wn]
		if ow == nil || nw == nil {
			fmt.Printf("%-20s in only one of the two files\n", wn)
			if gated[wn] {
				bad++
			}
			continue
		}
		for _, em := range spec.EndToEnd {
			ov, nv := ow.EndToEnd.Metrics[em.Name].Value, nw.EndToEnd.Metrics[em.Name].Value
			floor := 0.0
			if em.Name == "setup_s" {
				floor = setupFloor
			}
			worse, word := verdict(em.Better, em.Bound, floor, ov, nv, spreadOf(ow, em.Name), spreadOf(nw, em.Name))
			switch {
			case !gated[wn]:
				word += ", not gated"
			case word == "REGRESSION":
				bad++
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %18.4f  %s (%+.1f%% of %.0f%%)\n", wn, em.Name, ov, nv, nv/ov, word, worse*100, em.Bound*100)
		}
		if ow.EndToEnd.Failed != 0 || nw.EndToEnd.Failed != 0 || !nw.EndToEnd.BitIdentical {
			fmt.Printf("%-20s failed operations: old %d, new %d; new bit_identical %v\n", wn, ow.EndToEnd.Failed, nw.EndToEnd.Failed, nw.EndToEnd.BitIdentical)
			bad++
		}
		if ow.PerLayer == nil || nw.PerLayer == nil {
			continue
		}
		for _, name := range exactCounts {
			om, oldHas := ow.PerLayer.lookup(name)
			nm, newHas := nw.PerLayer.lookup(name)
			if !oldHas && !newHas {
				continue // not a number of this workload
			}
			if ov, nv := om.Value, nm.Value; oldHas != newHas || math.Float64bits(ov) != math.Float64bits(nv) {
				fmt.Printf("%-20s %-32s exact count moved: %v -> %v\n", wn, name, ov, nv)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d regression(s) or moved count(s)\n", bad)
		return 1
	}
	fmt.Println("no regression; every exact count is identical")
	return 0
}
