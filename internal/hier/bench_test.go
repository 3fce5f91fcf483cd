package hier

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// BenchmarkSharingTopology times the two-level multiply against flat SRUMMA
// on the real engine where the outer level has something to stage: 16 ranks,
// 8 per domain (each group two grid columns whose row-mates want the same
// remote blocks of A), 768^3, operands adopted where they lie. EXPERIMENTS.md
// "Stage what is shared" records the pair before and after.
func BenchmarkSharingTopology(b *testing.B) {
	topo := rt.Topology{NProcs: 16, ProcsPerNode: 8}
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		b.Fatal(err)
	}
	team, err := armci.NewTeam(topo)
	if err != nil {
		b.Fatal(err)
	}
	defer team.Close()
	d := core.Dims{M: 768, N: 768, K: 768}
	da, db, dc := core.Dists(g, d, core.NN)
	a, bm, out := mat.Random(da.Rows, da.Cols, 1), mat.Random(db.Rows, db.Cols, 2), mat.New(d.M, d.N)
	for _, mode := range []string{"flat", "hier"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := team.Run(func(c rt.Ctx) {
					ga, gb, gc := driver.Bind(c, da, a), driver.Bind(c, db, bm), driver.Bind(c, dc, out)
					var err error
					if mode == "hier" {
						err = Multiply(c, From(topo, g), d, Options{}, ga, gb, gc)
					} else {
						err = core.Multiply(c, g, d, core.Options{}, ga, gb, gc)
					}
					if err != nil {
						panic(err)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(2*float64(d.M)*float64(d.N)*float64(d.K)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
