package simrt

// Golden test for the traced-run rendering that cmd/srumma-trace prints:
// the per-rank timeline, the sorted per-kind activity summary and the
// parallel-efficiency line, for a fixed SRUMMA configuration on the
// virtual-time engine. The virtual clock is deterministic, so the rendered
// output is byte-stable; the golden file pins it across refactors of the
// tracing plumbing (the obs migration must not change what the sim
// reports). Regenerate with `go test ./internal/simrt -run Golden -update`.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// renderTrace formats a traced run the way cmd/srumma-trace does.
func renderTrace(events []obs.Event, nprocs, width int, horizon float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline (g=gemm w=wait c=copy p=pack b=barrier s=steal):\n")
	b.WriteString(obs.Timeline(events, nprocs, width, horizon))
	sum := obs.Summary(events)
	kinds := make([]string, 0, len(sum))
	for k := range sum {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	total := 0.0
	for _, k := range kinds {
		total += sum[k]
	}
	fmt.Fprintf(&b, "\naggregate activity over %d ranks:\n", nprocs)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-8s %10.3f ms (%5.1f%%)\n", k, sum[k]*1e3, 100*sum[k]/total)
	}
	busy := sum["gemm"]
	idleish := float64(nprocs)*horizon - total
	fmt.Fprintf(&b, "  %-8s %10.3f ms\n", "idle", idleish*1e3)
	fmt.Fprintf(&b, "\nparallel efficiency (gemm time / total cpu time): %.1f%%\n",
		100*busy/(float64(nprocs)*horizon))
	return b.String()
}

func TestTraceRenderGolden(t *testing.T) {
	prof, err := machine.ByName("linux-myrinet")
	if err != nil {
		t.Fatal(err)
	}
	const nprocs = 8
	g, err := grid.Square(nprocs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Dims{M: 384, N: 384, K: 384}
	rec := obs.NewRecorder(nprocs, 0)
	res, err := RunTraced(prof, nprocs, rec, func(c rt.Ctx) {
		da, db, dc := core.Dists(g, d, core.NN)
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		if err := core.Multiply(c, g, d, core.Options{}, ga, gb, gc); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("srumma 384x384x384 on %s, %d procs: %.3f ms\n\n%s",
		prof.Name, nprocs, res.Time*1e3, renderTrace(rec.Events(), nprocs, 100, res.Time))

	path := filepath.Join("testdata", "trace_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("traced-run rendering diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
