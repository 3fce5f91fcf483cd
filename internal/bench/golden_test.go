package bench

import (
	"math"
	"testing"

	"srumma/internal/algs"
	"srumma/internal/core"
	"srumma/internal/machine"
)

// TestRunMatmulGolden pins what the simulator reports for every row of the
// algorithm table (and SRUMMA's forced-copy and single-buffer variants) at
// one small shape: virtual seconds to the bit, and the byte and message
// counts. Every figure and srumma.Simulate go through RunMatmul, so a change
// to a row's placement or options that would move a figure fails here.
// The expected values were taken before the table existed, when each front
// end placed the five algorithms itself.
func TestRunMatmulGolden(t *testing.T) {
	copyFlavor := core.FlavorCopy
	for _, tc := range []struct {
		name                     string
		cfg                      MatmulConfig
		secondsBits              uint64
		bytesShared, bytesRemote int64
		msgs, msgBytes           int64
	}{
		{"srumma-TN", MatmulConfig{Alg: algs.SRUMMA, Case: core.TN}, 0x3f6439f2ca2727d7, 0, 2969600, 0, 0},
		{"srumma-copy", MatmulConfig{Alg: algs.SRUMMA, ForceFlavor: &copyFlavor}, 0x3f6028481d2ade01, 409600, 2662400, 0, 0},
		{"srumma-single-buffer", MatmulConfig{Alg: algs.SRUMMA, SingleBuffer: true}, 0x3f62cb013fcdfaba, 0, 2662400, 0, 0},
		{"summa-NT", MatmulConfig{Alg: algs.SUMMA, Case: core.NT, NB: 16}, 0x3f6efc54fef0e8af, 0, 0, 496, 3481600},
		{"pdgemm-TT", MatmulConfig{Alg: algs.Pdgemm, Case: core.TT, NB: 16}, 0x3f7b03b235b2241e, 0, 0, 512, 4096000},
		{"cannon", MatmulConfig{Alg: algs.Cannon}, 0x3f658ccd64c18579, 0, 0, 128, 4096000},
		{"fox", MatmulConfig{Alg: algs.Fox}, 0x3f6c972398149a25, 0, 0, 96, 3072000},
	} {
		cfg := tc.cfg
		cfg.Platform, cfg.Procs, cfg.Dims = machine.LinuxMyrinet(), 16, core.Dims{M: 240, N: 160, K: 320}
		res, err := RunMatmul(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := math.Float64bits(res.Seconds); got != tc.secondsBits {
			t.Errorf("%s: seconds %v (%#x), want %v (%#x)", tc.name,
				res.Seconds, got, math.Float64frombits(tc.secondsBits), tc.secondsBits)
		}
		s := res.Stats
		if s.BytesShared != tc.bytesShared || s.BytesRemote != tc.bytesRemote || s.Msgs != tc.msgs || s.MsgBytes != tc.msgBytes {
			t.Errorf("%s: bytes shared/remote %d/%d, msgs %d (%d B); want %d/%d, %d (%d B)", tc.name,
				s.BytesShared, s.BytesRemote, s.Msgs, s.MsgBytes, tc.bytesShared, tc.bytesRemote, tc.msgs, tc.msgBytes)
		}
	}
}
