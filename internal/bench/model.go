package bench

// The paper's §2.1 efficiency model, made executable: parallel time
//
//	T = N³/(P·rate) + 2·(N²/√P)·tw + 2·ts·√P            (eq. 1)
//
// and its overlapped form T ≈ N³/(P·rate) + 2·ts·√P when communication
// hides behind computation (eq. 3 with ω→0). These predictions are checked
// against the simulator, and the isoefficiency law (N³ ∝ P^{3/2}, same as
// Cannon's algorithm) is demonstrated by holding N³/P^{3/2} fixed and
// watching parallel efficiency stay flat.

import (
	"fmt"
	"math"
	"strings"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

// PredictSRUMMA evaluates equation (1) (overlap=false) or the fully
// overlapped form (overlap=true) in seconds.
func PredictSRUMMA(prof machine.Profile, n, p int, overlap bool) float64 {
	sq := math.Sqrt(float64(p))
	blk := int(float64(n) / sq)
	rate := prof.GemmRate(blk, blk, blk, false)
	comp := 2 * float64(n) * float64(n) * float64(n) / (float64(p) * rate)
	ts := prof.RMALatency + prof.NetLatency
	latency := 2 * ts * sq
	if overlap {
		return comp + latency
	}
	tw := 8 / prof.NetBW // seconds per element
	comm := 2 * float64(n) * float64(n) / sq * tw
	return comp + comm + latency
}

// ModelRow compares the analytic prediction with a simulated run.
type ModelRow struct {
	N, P               int
	Predicted          float64 // seconds, overlapped form
	PredictedNoOverlap float64
	Simulated          float64
	Efficiency         float64 // simulated parallel efficiency
}

// ModelCompare runs the simulator over (n, p) pairs and attaches the
// analytic predictions.
func ModelCompare(prof machine.Profile, ns, ps []int) ([]ModelRow, error) {
	var rows []ModelRow
	for _, n := range ns {
		for _, p := range ps {
			res, err := RunMatmul(MatmulConfig{
				Platform: prof,
				Procs:    p,
				Dims:     core.Dims{M: n, N: n, K: n},
				Alg:      algs.SRUMMA,
			})
			if err != nil {
				return nil, err
			}
			serial := prof.GemmTime(n, n, n, false)
			rows = append(rows, ModelRow{
				N:                  n,
				P:                  p,
				Predicted:          PredictSRUMMA(prof, n, p, true),
				PredictedNoOverlap: PredictSRUMMA(prof, n, p, false),
				Simulated:          res.Seconds,
				Efficiency:         serial / (float64(p) * res.Seconds),
			})
		}
	}
	return rows, nil
}

// FormatModel renders the model-vs-simulation table.
func FormatModel(prof machine.Profile, rows []ModelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Efficiency model (eq. 1/3) vs simulation on %s (seconds)\n", prof.Name)
	fmt.Fprintf(&b, "%8s %6s %14s %14s %14s %8s\n", "N", "P", "pred(overlap)", "pred(no-ovl)", "simulated", "eff")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %6d %14.4g %14.4g %14.4g %8.2f\n",
			r.N, r.P, r.Predicted, r.PredictedNoOverlap, r.Simulated, r.Efficiency)
	}
	return b.String()
}

// IsoRow is one point of the isoefficiency demonstration.
type IsoRow struct {
	P          int
	N          int
	Efficiency float64
}

// Isoefficiency scales the problem as N = baseN * sqrt(P) (so the work N³
// grows as P^{3/2}) and reports parallel efficiency, which the theory says
// should stay roughly constant.
func Isoefficiency(prof machine.Profile, baseN int, ps []int) ([]IsoRow, error) {
	var rows []IsoRow
	for _, p := range ps {
		n := int(float64(baseN) * math.Sqrt(float64(p)))
		res, err := RunMatmul(MatmulConfig{
			Platform: prof,
			Procs:    p,
			Dims:     core.Dims{M: n, N: n, K: n},
			Alg:      algs.SRUMMA,
		})
		if err != nil {
			return nil, err
		}
		serial := prof.GemmTime(n, n, n, false)
		rows = append(rows, IsoRow{P: p, N: n, Efficiency: serial / (float64(p) * res.Seconds)})
	}
	return rows, nil
}

// FormatIso renders the isoefficiency table.
func FormatIso(prof machine.Profile, baseN int, rows []IsoRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Isoefficiency on %s: N = %d*sqrt(P) keeps work/P^1.5 fixed\n", prof.Name, baseN)
	fmt.Fprintf(&b, "%6s %8s %12s\n", "P", "N", "efficiency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %8d %12.2f\n", r.P, r.N, r.Efficiency)
	}
	return b.String()
}
