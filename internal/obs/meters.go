package obs

// Meters is the canonical per-process counter block — the one counter
// model every layer shares. The runtime abstraction aliases it as rt.Stats,
// engines increment its fields directly on their hot paths (plain fields:
// each rank owns its block, so no atomics are needed), and exporters walk
// it with Each. Times are in engine seconds (wall for the real engine,
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

	// Fault-injection and recovery accounting, populated only when the
	// internal/faults chaos layer wraps the engine (zero otherwise).
	FaultsInjected  int64 // faults the injector planted into this rank's ops
	FaultRetries    int64 // one-sided ops re-issued after a timed-out transfer
	FaultRefetches  int64 // one-sided ops re-issued after a checksum mismatch
	ChecksumErrors  int64 // corrupted payloads detected end-to-end
	StragglerSteals int64 // tasks planned behind later ones because they wait on a slow rank, over all (re-)plans
	DegradedMode    int64 // 1 once the rank fell back to blocking transfers
	ABFTDetected    int64 // C blocks failing Huang-Abraham sum verification
	ABFTRecomputed  int64 // corrupted C blocks restored and recomputed clean

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
	s.FaultRetries += o.FaultRetries
	s.FaultRefetches += o.FaultRefetches
	s.ChecksumErrors += o.ChecksumErrors
	s.StragglerSteals += o.StragglerSteals
	s.DegradedMode += o.DegradedMode
	s.ABFTDetected += o.ABFTDetected
	s.ABFTRecomputed += o.ABFTRecomputed
	s.HierStagedBytes += o.HierStagedBytes
	s.HierMemberBytes += o.HierMemberBytes
}

// Each calls f once per meter in declaration order, with the canonical
// snake_case name exporters use.
func (s *Meters) Each(f func(name string, value float64)) {
	f("bytes_shared", float64(s.BytesShared))
	f("bytes_remote", float64(s.BytesRemote))
	f("gets_shared", float64(s.GetsShared))
	f("gets_remote", float64(s.GetsRemote))
	f("puts", float64(s.Puts))
	f("msgs", float64(s.Msgs))
	f("msg_bytes", float64(s.MsgBytes))
	f("flops", s.Flops)
	f("compute_time_s", s.ComputeTime)
	f("wait_time_s", s.WaitTime)
	f("pack_time_s", s.PackTime)
	f("barrier_time_s", s.BarrierTime)
	f("steal_time_s", s.StealTime)
	f("scratch_bytes", float64(s.ScratchBytes))
	f("faults_injected", float64(s.FaultsInjected))
	f("fault_retries", float64(s.FaultRetries))
	f("fault_refetches", float64(s.FaultRefetches))
	f("checksum_errors", float64(s.ChecksumErrors))
	f("straggler_steals", float64(s.StragglerSteals))
	f("degraded_mode", float64(s.DegradedMode))
	f("abft_detected", float64(s.ABFTDetected))
	f("abft_recomputed", float64(s.ABFTRecomputed))
	f("hier_staged_bytes", float64(s.HierStagedBytes))
	f("hier_member_fetch_bytes", float64(s.HierMemberBytes))
}

// Map returns the meters as a name→value map (for JSON benchmark dumps).
func (s *Meters) Map() map[string]float64 {
	out := make(map[string]float64, 20)
	s.Each(func(name string, v float64) { out[name] = v })
	return out
}
