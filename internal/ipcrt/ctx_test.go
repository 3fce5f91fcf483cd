package ipcrt

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/rt"
)

// TestWorkerCtxPoolsScratch: a worker rank's scratch comes from the local
// half it embeds (armci.LocalOps), so it is recycled through
// rt.BufferReleaser like a goroutine rank's, under the same misuse checks —
// a second release and the release of a mapped segment are refused.
func TestWorkerCtxPoolsScratch(t *testing.T) {
	c := newCtx(0, rt.Topology{NProcs: 1, ProcsPerNode: 1}, t.TempDir(), nil)
	rel := rt.FindBufferReleaser(c)
	if rel == nil {
		t.Fatal("a worker's ctx does not recycle scratch")
	}
	b := c.LocalBuf(100)
	rel.ReleaseBuf(b)
	for what, bad := range map[string]rt.Buffer{"second release": b, "segment": armci.Segment(make([]float64, 8))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", what)
				}
			}()
			rel.ReleaseBuf(bad)
		}()
	}
}
