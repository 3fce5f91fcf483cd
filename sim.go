package srumma

import (
	"fmt"
	"sort"

	"srumma/internal/bench"
	"srumma/internal/core"
	"srumma/internal/machine"
)

// Platform is a modeled machine (see Platforms for the available names).
type Platform = machine.Profile

// Platforms lists the modeled platform names from the paper's evaluation:
// "linux-myrinet", "ibm-sp", "cray-x1", "sgi-altix".
func Platforms() []string {
	var names []string
	for n := range machine.All() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PlatformByName returns the named platform model.
func PlatformByName(name string) (Platform, error) { return machine.ByName(name) }

// Dims are the multiplication sizes: C is M x N with contraction length K.
type Dims = core.Dims

// SimOptions configure one virtual-time simulation run.
type SimOptions struct {
	// Platform is a name from Platforms().
	Platform string
	Procs    int
	Dims     Dims
	Case     Case
	// Algorithm is AlgSRUMMA (default), AlgPdgemm, AlgSUMMA, AlgCannon or
	// AlgFox (Cannon and Fox require a square process grid and Case NN).
	Algorithm string

	// Protocol/ablation knobs (paper Figures 5 and 9).
	DisableZeroCopy bool
	Blocking        bool // single-buffer blocking gets instead of the pipeline
	NoDiagonalShift bool
	NoSharedFirst   bool
	ForceCopyShared bool // copy-based shared-memory flavor (Cray X1 style)
	NB              int  // pdgemm/SUMMA panel width
	// MaxTaskK caps SRUMMA's task granularity along the contraction
	// dimension (0 = whole owner blocks); bounds buffer memory and refines
	// the pipeline.
	MaxTaskK int
}

// SimReport is the outcome of a simulation.
type SimReport struct {
	Seconds float64 // virtual seconds of the slowest rank
	GFLOPS  float64

	BytesShared int64
	BytesRemote int64
	Messages    int64
	// Overlap is the fraction of one-sided communication hidden behind
	// computation: 1 - waitTime/commVolumeTime, clamped to [0, 1]. Only
	// meaningful for SRUMMA runs.
	Overlap float64
}

// Simulate runs one configuration on the virtual-time engine.
func Simulate(o SimOptions) (SimReport, error) {
	prof, err := machine.ByName(o.Platform)
	if err != nil {
		return SimReport{}, err
	}
	cfg := bench.MatmulConfig{
		Platform:        prof,
		Procs:           o.Procs,
		Dims:            o.Dims,
		Case:            o.Case,
		Alg:             o.Algorithm,
		SingleBuffer:    o.Blocking,
		NoDiagonalShift: o.NoDiagonalShift,
		NoSharedFirst:   o.NoSharedFirst,
		NB:              o.NB,
		MaxTaskK:        o.MaxTaskK,
		DisableZeroCopy: o.DisableZeroCopy,
	}
	if o.ForceCopyShared {
		fl := core.FlavorCopy
		cfg.ForceFlavor = &fl
	}
	res, err := bench.RunMatmul(cfg)
	if err != nil {
		return SimReport{}, err
	}
	rep := SimReport{
		Seconds:     res.Seconds,
		GFLOPS:      res.GFLOPS,
		BytesShared: res.Stats.BytesShared,
		BytesRemote: res.Stats.BytesRemote,
		Messages:    res.Stats.Msgs,
	}
	if total := res.Stats.WaitTime + res.Stats.ComputeTime; total > 0 && res.Stats.ComputeTime > 0 {
		ov := 1 - res.Stats.WaitTime/total
		if ov < 0 {
			ov = 0
		}
		rep.Overlap = ov
	}
	return rep, nil
}

// BandwidthPoint is one (message size, bandwidth) sample from a protocol
// microbenchmark.
type BandwidthPoint = bench.BandwidthPoint

// OverlapPoint is one (message size, achievable overlap %) sample.
type OverlapPoint = bench.OverlapPoint

// Protocol names for the communication microbenchmarks.
const (
	ProtoGet    = "armci-get" // one-sided blocking get between nodes
	ProtoMPI    = "mpi"       // two-sided send/receive (half round trip)
	ProtoMemcpy = "shmem"     // shared-memory copy within a node
)

// MeasureBandwidth runs the protocol bandwidth microbenchmark behind the
// paper's Figures 6 and 8.
func MeasureBandwidth(platform, proto string, sizes []int) ([]BandwidthPoint, error) {
	prof, err := machine.ByName(platform)
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = bench.CommSizes
	}
	switch proto {
	case ProtoGet:
		return bench.BandwidthGet(prof, sizes)
	case ProtoMPI:
		return bench.BandwidthMPI(prof, sizes)
	case ProtoMemcpy:
		return bench.BandwidthMemcpy(prof, sizes)
	}
	return nil, fmt.Errorf("srumma: unknown protocol %q", proto)
}

// MeasureOverlap runs the communication/computation overlap microbenchmark
// behind the paper's Figure 7 (ProtoGet or ProtoMPI).
func MeasureOverlap(platform, proto string, sizes []int) ([]OverlapPoint, error) {
	prof, err := machine.ByName(platform)
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = bench.CommSizes
	}
	switch proto {
	case ProtoGet:
		return bench.OverlapGet(prof, sizes)
	case ProtoMPI:
		return bench.OverlapMPI(prof, sizes)
	}
	return nil, fmt.Errorf("srumma: unknown protocol %q for overlap", proto)
}
