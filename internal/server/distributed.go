package server

// The distributed route: one job pipeline for every product too large for
// the local kernel. A dispatched request becomes one ipcrt.JobSpec — the
// serialisable statement of the job — and that spec runs on one of two
// runners, both returning per-rank results in the same shape:
//
//   - a persistent in-process team (armci.Team), each rank running the one
//     job body, job.Run (route "srumma");
//   - the cluster node pool (cluster.Pool.Run), whose worker processes run
//     the same body through ipcrt's registration of it (route "cluster"),
//     placed by a locality key so a node's persistent segment pool stays
//     warm for repeated shapes.
//
// Everything after the run — ABFT counters, trace merge, salvage banking
// for the retry — happens once, on that result, without knowing which
// runner produced it; only worker processes send C blocks back to be
// gathered. Failure folds into the one recovery policy too: a rank panic in
// a team and a worker death in the pool (the node is replaced synchronously
// before the error returns) both surface as retryable errors with whatever
// the ranks salvaged.

import (
	"cmp"
	"fmt"

	"srumma/internal/armci"
	"srumma/internal/cluster"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/job"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// jobSpec is the one place a request becomes a job: operands inline,
// executor knobs, verification, hierarchical routing, and — consumed from
// the job's recovery state — the salvage a failed attempt left behind.
func (s *Server) jobSpec(job *schedJob) *ipcrt.JobSpec {
	req, d, rec := job.req, job.d, job.rec
	spec := &ipcrt.JobSpec{
		M: d.M, N: d.N, K: d.K,
		Case:  int(job.cs),
		Alpha: req.alpha(),
		Beta:  req.beta(),
		Data:  true,
		A:     req.A,
		B:     req.B,

		MaxTaskK:  s.cfg.maxTaskK,
		Cancel:    job.ctx.Done(),
		ReturnC:   true,
		Trace:     s.rec != nil,
		ExitRank:  -1,
		HangRank:  -1,
		UseLedger: true,
		Prior:     rec.take(),
		ABFT:      s.cfg.ABFT,
		// Hierarchical routing mode: same grid, task lists and ledger/salvage
		// semantics, only the data movement changes. A group is a
		// shared-memory domain (a worker node on the cluster).
		Hier: s.cfg.Hier,
	}
	if req.beta() != 0 {
		spec.CIn = req.C
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
		results, err = s.cpool.Run(spec, cluster.PlaceKey{M: spec.M, N: spec.N, K: spec.K, Case: spec.Case})
	} else {
		var buf *mat.Buf
		spec.Out, buf = s.resultMatrix(spec.M, spec.N)
		results, err = s.runOnTeam(tm, spec)
		if err == nil {
			job.outBuf = buf
		} else {
			// The team ran without a watchdog, so every rank has joined and
			// nothing reads the failed attempt's C any more; the retry takes
			// a buffer of its own and its salvage is a copy.
			mat.PutBuf(buf)
		}
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
// B where they lie and compute C in place in spec.Out, which the caller
// provides (with beta 0 its old contents are never read). A rank that panics
// leaves its salvage in its result on the way out (the team turns the panic
// into the run error); a rank that returns an error keeps the error's type,
// so cancellation and ABFT exhaustion stay recognisable.
func (s *Server) runOnTeam(tm *armci.Team, spec *ipcrt.JobSpec) ([]*ipcrt.RankResult, error) {
	if err := spec.Validate(s.topo.NProcs); err != nil {
		return nil, err
	}
	n := s.topo.NProcs
	results := make([]*ipcrt.RankResult, n)
	errs := make([]error, n)
	stats, err := tm.Run(func(rawC rt.Ctx) {
		c := rawC
		if s.chaos != nil {
			// The injector draws from process-wide op counters, so fault
			// schedules advance across jobs and a planted crash fires once.
			c = s.chaos.Wrap(rawC)
		}
		res := &ipcrt.RankResult{Rank: c.Rank()}
		results[res.Rank] = res
		_, errs[res.Rank] = job.Run(c, spec, res)
	})
	for rank, st := range stats {
		if results[rank] != nil {
			results[rank].Stats = st
		}
	}
	return results, cmp.Or(append([]error{err}, errs...)...) // the run's error, else the first rank's
}
