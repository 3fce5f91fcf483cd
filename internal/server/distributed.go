package server

// The distributed route: one job pipeline for every product too large for
// the local kernel. A dispatched request becomes one ipcrt.JobSpec — the
// serialisable statement of the job — and that spec runs on one of two
// runners, both returning per-rank results in the same shape:
//
//   - a persistent in-process team (armci.Team), each rank running the
//     shared body ipcrt.RunBodyEx (route "srumma");
//   - the cluster node pool (cluster.Pool.Run), whose worker processes run
//     the same body (route "cluster"), placed by a locality key so a
//     node's persistent segment pool stays warm for repeated shapes.
//
// Everything after the run — ABFT counters, trace merge, salvage banking
// for the retry — happens once, on that result, without knowing which
// runner produced it; only worker processes send C blocks back to be
// gathered. Failure folds into the one recovery policy too: a rank panic in
// a team and a worker death in the pool (the node is replaced synchronously
// before the error returns) both surface as retryable errors with whatever
// the ranks salvaged.

import (
	"fmt"

	"srumma/internal/armci"
	"srumma/internal/cluster"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
	"srumma/internal/sched"
)

// jobSpec is the one place a request becomes a job: operands inline,
// executor knobs, verification, hierarchical routing, and — consumed from
// the job's recovery state — the salvage a failed attempt left behind.
func (s *Server) jobSpec(job *schedJob) *ipcrt.JobSpec {
	req, d, rec := job.req, job.d, job.rec
	kt := req.KernelThreads
	if kt <= 0 {
		kt = s.cfg.KernelThreads
	}
	spec := &ipcrt.JobSpec{
		M: d.M, N: d.N, K: d.K,
		Case:  int(job.cs),
		Alpha: req.alpha(),
		Beta:  req.beta(),
		Data:  true,
		A:     req.A,
		B:     req.B,

		KernelThreads: kt,
		MaxTaskK:      s.cfg.MaxTaskK,
		Cancel:        job.ctx.Done(),
		ReturnC:       true,
		Trace:         job.traced && s.rec != nil,
		ExitRank:      -1,
		HangRank:      -1,
		UseLedger:     true,
		Prior:         rec.take(),
	}
	if req.beta() != 0 {
		spec.CIn = req.C
	}
	if rec.abft {
		spec.ABFT = true
		spec.ABFTTol = s.cfg.ABFTTol
	}
	if s.cfg.Hier {
		// Hierarchical routing mode: same grid, same task lists, same
		// ledger/salvage semantics — only the data movement changes, so the
		// retry/resume policy needs no adjustment. HierGroup 0 keeps one
		// group per shared-memory domain (per worker node on the cluster).
		spec.Hier = true
		spec.HierGroup = s.cfg.HierGroup
	}
	return spec
}

// runDistributed executes one large multiply: build the spec, run it on
// the cluster pool or on the dispatch's team, account for what the ranks
// report, and return C. On failure it banks whatever the ranks salvaged
// for the retry that follows.
func (s *Server) runDistributed(tm *armci.Team, job *schedJob) (*mat.Matrix, error) {
	// A channel does not reach the pool's worker processes, so an expired
	// deadline is caught here before the job ships; an in-process run also
	// polls spec.Cancel between tasks.
	if err := job.ctx.Err(); err != nil {
		return nil, err
	}
	spec := s.jobSpec(job)
	var results []*ipcrt.RankResult
	var err error
	if s.cpool != nil {
		class := job.req.Class
		if class == "" {
			class = sched.ClassInteractive.String()
		}
		results, err = s.cpool.Run(spec, cluster.PlaceKey{Class: class, M: spec.M, N: spec.N, K: spec.K, Case: spec.Case})
	} else {
		results, err = s.runOnTeam(tm, spec)
	}

	// Worker processes ship their trace events back in the results; they
	// merge onto the server recorder's epoch (rank lanes are shared with
	// the in-process teams, which record into it directly — one timeline
	// for the whole service).
	if spec.Trace {
		for _, e := range ipcrt.MergeEvents(results, s.rec.Epoch()) {
			s.rec.Record(e.Rank, e.Kind, e.Start, e.End)
		}
	}
	var det, recomputed int64
	for _, r := range results {
		if r != nil && r.Stats != nil {
			det += r.Stats.ABFTDetected
			recomputed += r.Stats.ABFTRecomputed
			s.met.hierStaged.Add(r.Stats.HierStagedBytes)
			s.met.hierFetched.Add(r.Stats.HierMemberBytes)
		}
	}
	s.met.noteABFT(det, recomputed)

	if err != nil {
		job.rec.store(results)
		return nil, err
	}
	if spec.Out != nil {
		return spec.Out, nil // the in-process ranks wrote the result where it lies
	}
	blocks := make([]*mat.Matrix, len(results))
	for rank, r := range results {
		if r == nil {
			return nil, fmt.Errorf("server: rank %d returned no result", rank)
		}
		blocks[rank] = &mat.Matrix{Rows: r.CRows, Cols: r.CCols, Stride: r.CCols, Data: r.C}
	}
	return grid.NewBlockDist(s.g, spec.M, spec.N).Gather(blocks)
}

// runOnTeam is the in-process runner: every rank of a persistent team runs
// the shared body, reporting in the shape the cluster pool reports — except
// that the ranks share this address space, so they read the request's A and
// B where they lie and compute C in place in spec.Out. A rank that panics
// leaves its salvage in its result on the way out (the team turns the panic
// into the run error); a rank that returns an error keeps the error's type,
// so cancellation and ABFT exhaustion stay recognisable.
func (s *Server) runOnTeam(tm *armci.Team, spec *ipcrt.JobSpec) ([]*ipcrt.RankResult, error) {
	if err := spec.Validate(s.topo.NProcs); err != nil {
		return nil, err
	}
	spec.Out = mat.New(spec.M, spec.N)
	// The ranks record spans iff the request was sampled (always, with
	// tracing on and no head-sampling). Safe because a team runs one job at
	// a time.
	var rec *obs.Recorder
	if spec.Trace {
		rec = s.rec
	}
	tm.SetRecorder(rec)
	n := s.topo.NProcs
	results := make([]*ipcrt.RankResult, n)
	errs := make([]error, n)
	stats, err := tm.Run(func(rawC rt.Ctx) {
		c := rawC
		if s.chaos != nil {
			// Chaos layering: the injector draws from process-wide op counters
			// (so fault schedules advance across jobs) and the resilience layer
			// sits on top because transport drops/corruption are invisible to
			// ABFT — a corrupted OPERAND yields a consistent-but-wrong
			// prediction, so it must be caught by transfer checksums, not sums.
			c = faults.Resilient(s.chaos.Wrap(rawC), faults.RecoveryConfig{})
		}
		res := &ipcrt.RankResult{Rank: c.Rank()}
		results[res.Rank] = res
		res.C, res.CRows, res.CCols, errs[res.Rank] = ipcrt.RunBodyEx(c, spec, res)
	})
	for rank, st := range stats {
		if results[rank] != nil {
			results[rank].Stats = st
		}
	}
	if err != nil {
		return results, err
	}
	for _, e := range errs {
		if e != nil {
			return results, e
		}
	}
	return results, nil
}
