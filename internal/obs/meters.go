package obs

// Meters is the canonical per-process counter block — the one counter
// model every layer shares. The runtime abstraction aliases it as rt.Stats,
// engines increment its fields directly on their hot paths (plain fields:
// each rank owns its block, so no atomics are needed), and Add sums the
// ranks' blocks. Times are in engine seconds (wall for the real engine,
// virtual for the sim engine).
type Meters struct {
	BytesShared int64 // one-sided bytes moved within a shared-memory domain
	BytesRemote int64 // one-sided bytes moved between domains (RMA)
	GetsShared  int64
	GetsRemote  int64
	Puts        int64
	Msgs        int64 // two-sided messages sent
	MsgBytes    int64
	Flops       float64
	ComputeTime float64
	WaitTime    float64 // time blocked in Wait/Recv/Get
	PackTime    float64
	BarrierTime float64
	StealTime   float64 // CPU time stolen servicing non-zero-copy remote ops
	// ScratchBytes counts local scratch allocated via LocalBuf — the
	// algorithm's memory footprint beyond the distributed operands
	// themselves (communication buffers, panels, redistribution staging).
	ScratchBytes int64

	// Fault accounting: what the internal/faults injector planted (zero
	// unless it wraps the engine) and what ABFT verification caught.
	FaultsInjected int64 // faults the injector planted into this rank's ops
	ABFTDetected   int64 // C blocks failing Huang-Abraham sum verification
	ABFTRecomputed int64 // corrupted C blocks restored and recomputed clean

	// Two-level accounting (internal/hier, one member counts for its group):
	// bytes staged once into the band, bytes fetched by their only consumer.
	HierStagedBytes int64
	HierMemberBytes int64
}

// Add accumulates o into s.
func (s *Meters) Add(o *Meters) {
	s.BytesShared += o.BytesShared
	s.BytesRemote += o.BytesRemote
	s.GetsShared += o.GetsShared
	s.GetsRemote += o.GetsRemote
	s.Puts += o.Puts
	s.Msgs += o.Msgs
	s.MsgBytes += o.MsgBytes
	s.Flops += o.Flops
	s.ComputeTime += o.ComputeTime
	s.WaitTime += o.WaitTime
	s.PackTime += o.PackTime
	s.BarrierTime += o.BarrierTime
	s.StealTime += o.StealTime
	s.ScratchBytes += o.ScratchBytes
	s.FaultsInjected += o.FaultsInjected
	s.ABFTDetected += o.ABFTDetected
	s.ABFTRecomputed += o.ABFTRecomputed
	s.HierStagedBytes += o.HierStagedBytes
	s.HierMemberBytes += o.HierMemberBytes
}
