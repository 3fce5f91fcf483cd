package bench

// Communication microbenchmarks for Figures 6-8: protocol bandwidth as a
// function of message size (ARMCI get vs. MPI send/receive vs. raw memory
// copy) and the potential communication/computation overlap of the
// nonblocking forms.

import (
	"fmt"
	"math"

	"srumma/internal/machine"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

// CommSizes is the default message-size sweep (bytes), 8 B to 4 MB.
var CommSizes = []int{8, 64, 512, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// BandwidthPoint is one (size, bandwidth) sample.
type BandwidthPoint struct {
	Bytes int
	MBps  float64 // 1e6 bytes per second, as the paper's plots use
}

// commReps amortizes per-run constants.
const commReps = 4

// ranksOnTwoNodes returns a process count spanning at least two physical
// nodes on the profile, plus the rank living on the second node.
func ranksOnTwoNodes(p machine.Profile) (nprocs, peer int) {
	return 2 * p.ProcsPerNode, p.ProcsPerNode
}

// BandwidthGet measures ARMCI blocking-get bandwidth between two nodes.
func BandwidthGet(prof machine.Profile, sizes []int) ([]BandwidthPoint, error) {
	nprocs, peer := ranksOnTwoNodes(prof)
	out := make([]BandwidthPoint, 0, len(sizes))
	for _, sz := range sizes {
		elems := sz / 8
		if elems == 0 {
			elems = 1
		}
		var per float64
		_, err := simrt.Run(prof, nprocs, func(c rt.Ctx) {
			g := c.Malloc(elems)
			c.Barrier()
			if c.Rank() == 0 {
				dst := c.LocalBuf(elems)
				t0 := c.Now()
				for r := 0; r < commReps; r++ {
					rt.Get(c, g, peer, 0, elems, dst, 0)
				}
				per = (c.Now() - t0) / commReps
			}
			c.Barrier()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{Bytes: 8 * elems, MBps: float64(8*elems) / per / 1e6})
	}
	return out, nil
}

// BandwidthMemcpy measures the shared-memory copy path between two ranks
// on the SAME physical node (the "shmem" curve of Figure 6): pure memory
// system, no fabric.
func BandwidthMemcpy(prof machine.Profile, sizes []int) ([]BandwidthPoint, error) {
	nprocs := prof.ProcsPerNode
	peer := 1
	if nprocs < 2 {
		nprocs, peer = 2, 1
	}
	out := make([]BandwidthPoint, 0, len(sizes))
	for _, sz := range sizes {
		elems := sz / 8
		if elems == 0 {
			elems = 1
		}
		var per float64
		_, err := simrt.Run(prof, nprocs, func(c rt.Ctx) {
			g := c.Malloc(elems)
			c.Barrier()
			if c.Rank() == 0 {
				dst := c.LocalBuf(elems)
				t0 := c.Now()
				for r := 0; r < commReps; r++ {
					rt.Get(c, g, peer, 0, elems, dst, 0)
				}
				per = (c.Now() - t0) / commReps
			}
			c.Barrier()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{Bytes: 8 * elems, MBps: float64(8*elems) / per / 1e6})
	}
	return out, nil
}

// BandwidthMPI measures MPI send/receive bandwidth between two nodes as
// half the round-trip time, the way the paper reports it.
func BandwidthMPI(prof machine.Profile, sizes []int) ([]BandwidthPoint, error) {
	nprocs, peer := ranksOnTwoNodes(prof)
	out := make([]BandwidthPoint, 0, len(sizes))
	for _, sz := range sizes {
		elems := sz / 8
		if elems == 0 {
			elems = 1
		}
		var per float64
		_, err := simrt.Run(prof, nprocs, func(c rt.Ctx) {
			buf := c.LocalBuf(elems)
			c.Barrier()
			if c.Rank() == 0 {
				t0 := c.Now()
				for r := 0; r < commReps; r++ {
					c.Send(peer, 5, buf, 0, elems)
					c.Recv(peer, 6, buf, 0, elems)
				}
				per = (c.Now() - t0) / (2 * commReps)
			} else if c.Rank() == peer {
				for r := 0; r < commReps; r++ {
					c.Recv(0, 5, buf, 0, elems)
					c.Send(0, 6, buf, 0, elems)
				}
			}
			c.Barrier()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{Bytes: 8 * elems, MBps: float64(8*elems) / per / 1e6})
	}
	return out, nil
}

// OverlapPoint is one (size, achievable overlap %) sample of Figure 7.
type OverlapPoint struct {
	Bytes      int
	OverlapPct float64
}

// overlapMeasure computes the COMB-style overlap metric: issue the
// nonblocking operation, compute for approximately the communication time,
// then wait. overlap = (Tcomm + Tcomp - Ttotal) / min(Tcomm, Tcomp).
func overlapClamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// gemmDimsForSeconds returns a cube size whose modeled dgemm time is close
// to target seconds on the profile.
func gemmDimsForSeconds(prof machine.Profile, target float64) int {
	d := 8
	for d < 4096 {
		if prof.GemmTime(d, d, d, false) >= target {
			return d
		}
		d = int(float64(d) * 1.3)
	}
	return d
}

// OverlapGet measures ARMCI nonblocking-get overlap vs message size.
func OverlapGet(prof machine.Profile, sizes []int) ([]OverlapPoint, error) {
	nprocs, peer := ranksOnTwoNodes(prof)
	out := make([]OverlapPoint, 0, len(sizes))
	for _, sz := range sizes {
		elems := sz / 8
		if elems == 0 {
			elems = 1
		}
		var tComm, tComp, tTotal float64
		_, err := simrt.Run(prof, nprocs, func(c rt.Ctx) {
			g := c.Malloc(elems)
			c.Barrier()
			if c.Rank() == 0 {
				dst := c.LocalBuf(elems)
				// Communication-only time.
				t0 := c.Now()
				rt.Get(c, g, peer, 0, elems, dst, 0)
				tComm = c.Now() - t0
				// Computation sized to the communication time.
				d := gemmDimsForSeconds(prof, tComm)
				ab := c.LocalBuf(d * d)
				cb := c.LocalBuf(d * d)
				mm := rt.Mat{Buf: ab, LD: d, Rows: d, Cols: d}
				cm := rt.Mat{Buf: cb, LD: d, Rows: d, Cols: d}
				t0 = c.Now()
				c.Gemm(1, mm, mm, 0, cm)
				tComp = c.Now() - t0
				// Overlapped run.
				t0 = c.Now()
				h := rt.NbGet(c, g, peer, 0, elems, dst, 0)
				c.Gemm(1, mm, mm, 0, cm)
				c.Wait(h)
				tTotal = c.Now() - t0
			}
			c.Barrier()
		})
		if err != nil {
			return nil, err
		}
		ov := overlapClamp(100 * (tComm + tComp - tTotal) / math.Min(tComm, tComp))
		out = append(out, OverlapPoint{Bytes: 8 * elems, OverlapPct: ov})
	}
	return out, nil
}

// OverlapMPI measures MPI nonblocking-send overlap at the sender, which
// collapses past the eager/rendezvous threshold (the 16 KB cliff in
// Figure 7).
func OverlapMPI(prof machine.Profile, sizes []int) ([]OverlapPoint, error) {
	nprocs, peer := ranksOnTwoNodes(prof)
	out := make([]OverlapPoint, 0, len(sizes))
	for _, sz := range sizes {
		elems := sz / 8
		if elems == 0 {
			elems = 1
		}
		var tComm, tComp, tTotal float64
		_, err := simrt.Run(prof, nprocs, func(c rt.Ctx) {
			buf := c.LocalBuf(elems)
			c.Barrier()
			if c.Rank() == 0 {
				// Communication-only baseline: one-way delivery time,
				// measured as half a ping-pong (the same convention the
				// paper uses for its MPI bandwidth numbers).
				t0 := c.Now()
				c.Send(peer, 5, buf, 0, elems)
				c.Recv(peer, 5, buf, 0, elems)
				tComm = (c.Now() - t0) / 2
				d := gemmDimsForSeconds(prof, tComm)
				ab := c.LocalBuf(d * d)
				cb := c.LocalBuf(d * d)
				mm := rt.Mat{Buf: ab, LD: d, Rows: d, Cols: d}
				cm := rt.Mat{Buf: cb, LD: d, Rows: d, Cols: d}
				t0 = c.Now()
				c.Gemm(1, mm, mm, 0, cm)
				tComp = c.Now() - t0
				t0 = c.Now()
				h := c.Isend(peer, 6, buf, 0, elems)
				c.Gemm(1, mm, mm, 0, cm)
				c.Wait(h)
				tTotal = c.Now() - t0
			}
			if c.Rank() == peer {
				// Echo the ping, then pre-post the overlapped-run receive
				// so the sender-side protocol is what gets measured.
				c.Recv(0, 5, buf, 0, elems)
				c.Send(0, 5, buf, 0, elems)
				h2 := c.Irecv(0, 6, buf, 0, elems)
				c.Wait(h2)
			}
			c.Barrier()
		})
		if err != nil {
			return nil, err
		}
		ov := overlapClamp(100 * (tComm + tComp - tTotal) / math.Min(tComm, tComp))
		out = append(out, OverlapPoint{Bytes: 8 * elems, OverlapPct: ov})
	}
	return out, nil
}

// FormatBandwidth renders a bandwidth table with one column per series.
func FormatBandwidth(title string, series map[string][]BandwidthPoint, order []string) string {
	s := title + "\n"
	s += fmt.Sprintf("%12s", "bytes")
	for _, name := range order {
		s += fmt.Sprintf("%30s", name+" MB/s")
	}
	s += "\n"
	if len(order) == 0 {
		return s
	}
	for i := range series[order[0]] {
		s += fmt.Sprintf("%12d", series[order[0]][i].Bytes)
		for _, name := range order {
			s += fmt.Sprintf("%30.1f", series[name][i].MBps)
		}
		s += "\n"
	}
	return s
}

// FormatOverlap renders an overlap table with one column per series.
func FormatOverlap(title string, series map[string][]OverlapPoint, order []string) string {
	s := title + "\n"
	s += fmt.Sprintf("%12s", "bytes")
	for _, name := range order {
		s += fmt.Sprintf("%26s", name+" %")
	}
	s += "\n"
	if len(order) == 0 {
		return s
	}
	for i := range series[order[0]] {
		s += fmt.Sprintf("%12d", series[order[0]][i].Bytes)
		for _, name := range order {
			s += fmt.Sprintf("%26.1f", series[name][i].OverlapPct)
		}
		s += "\n"
	}
	return s
}
