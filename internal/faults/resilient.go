package faults

import (
	"fmt"
	"time"

	"srumma/internal/rt"
)

// RecoveryConfig tunes the resilient wrapper. The zero value gets sensible
// defaults (25ms first-attempt timeout, 8 attempts, checksums on when the
// engine supports them).
type RecoveryConfig struct {
	// OpTimeout is the first-attempt completion deadline of a one-sided
	// op; each retry doubles it up to MaxBackoff (capped exponential
	// backoff).
	OpTimeout  time.Duration
	MaxBackoff time.Duration
	// MaxAttempts bounds issues per op; exhausting it panics with rank and
	// op context (fail loudly, never silently wrong).
	MaxAttempts int
	// NoChecksum disables end-to-end payload verification even when the
	// engine supports it.
	NoChecksum bool
	// StragglerLatency flags an owner as slow once the EWMA of blocked
	// wait time on its transfers exceeds this (default 1ms).
	StragglerLatency time.Duration
	// DegradeAfter is the failed-attempt count (timeouts plus checksum
	// mismatches) after which the rank degrades from the nonblocking
	// double-buffered pipeline to blocking single-buffer transfers.
	DegradeAfter int
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.OpTimeout <= 0 {
		c.OpTimeout = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.StragglerLatency <= 0 {
		c.StragglerLatency = time.Millisecond
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 4
	}
	return c
}

// Resilient wraps a (possibly fault-injected) real-engine ctx with the
// recovery mechanics: every one-sided get/put gets a completion timeout
// with capped exponential backoff and re-issue, payloads are verified
// end-to-end by checksum and refetched on mismatch, per-owner wait
// latencies are tracked so the SRUMMA executor can route around
// stragglers (IsSlow), and repeated failures flip the rank into degraded
// blocking mode (Degraded). Recovery actions are counted in rt.Stats.
//
// Like Inject, it is wall-clock based and therefore for the real engine
// only.
func Resilient(inner rt.Ctx, cfg RecoveryConfig) rt.Ctx {
	return &resCtx{
		Ctx:  inner,
		cfg:  cfg.withDefaults(),
		sum:  rt.Find[SourceChecksummer](inner),
		ewma: make([]float64, inner.Size()),
	}
}

type resCtx struct {
	rt.Ctx // inner (typically the injector); everything else passes through
	cfg    RecoveryConfig
	sum    SourceChecksummer // nil when the engine cannot checksum sources
	ewma   []float64         // per-owner blocked-wait EWMA, seconds
	fails  int               // failed attempts so far
	slow   bool              // degraded to blocking mode
	ops    int64             // issue ordinal, for error context
}

// Unwrap exposes the layer beneath.
func (c *resCtx) Unwrap() rt.Ctx { return c.Ctx }

// IsSlow reports whether transfers from rank have been stalling: the
// SRUMMA executor defers tasks whose operands live on slow ranks.
func (c *resCtx) IsSlow(rank int) bool {
	return c.ewma[rank] > c.cfg.StragglerLatency.Seconds()
}

// Degraded reports whether this rank has fallen back to blocking
// single-buffer transfers after repeated handle failures.
func (c *resCtx) Degraded() bool { return c.slow }

func (c *resCtx) noteFailure() {
	c.fails++
	if !c.slow && c.fails >= c.cfg.DegradeAfter {
		c.slow = true
		c.Stats().DegradedMode = 1
	}
}

// observe folds one blocked wait on `rank` into its latency EWMA.
func (c *resCtx) observe(rank int, waited float64) {
	c.ewma[rank] = 0.75*c.ewma[rank] + 0.25*waited
}

// pollUntil waits for h to complete within `limit`, polling (engine Wait
// cannot be used: a faulted handle may never complete). Returns false on
// timeout.
func pollUntil(h rt.Handle, limit time.Duration) bool {
	if h.Done() {
		return true
	}
	deadline := time.Now().Add(limit)
	for {
		time.Sleep(100 * time.Microsecond)
		if h.Done() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// retryGet is a nonblocking get with enough captured state to be
// re-issued.
type retryGet struct {
	c                         *resCtx
	g                         rt.Global
	rank, off, ld, rows, cols int
	dst                       rt.Buffer
	dstOff                    int
	h                         rt.Handle
	want                      uint64 // source checksum, when available
	attempt                   int
	op                        int64 // issue ordinal, for error context
}

func (r *retryGet) Done() bool { return r.h.Done() }

// retryPut is the symmetric nonblocking put. Puts are verified by
// checksumming the target region against the source payload after
// completion (puts are idempotent, so re-issue is safe).
type retryPut struct {
	c                         *resCtx
	src                       rt.Buffer
	srcOff                    int
	g                         rt.Global
	rank, off, ld, rows, cols int
	h                         rt.Handle
	want                      uint64
	attempt                   int
	op                        int64
}

func (r *retryPut) Done() bool { return r.h.Done() }

func (c *resCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	r := &retryGet{c: c, g: g, rank: rank, off: off, ld: ld, rows: rows, cols: cols, dst: dst, dstOff: dstOff}
	if c.sum != nil && !c.cfg.NoChecksum {
		r.want = c.sum.ChecksumRegion(g, rank, off, ld, rows, cols)
	}
	c.ops++
	r.op = c.ops
	r.issue()
	return r
}

func (r *retryGet) issue() {
	r.h = r.c.Ctx.NbGetSub(r.g, r.rank, r.off, r.ld, r.rows, r.cols, r.dst, r.dstOff)
}

// verify reports whether the landed payload matches the source checksum.
func (r *retryGet) verify() bool {
	if r.c.sum == nil || r.c.cfg.NoChecksum {
		return true
	}
	return rt.Checksum(r.c.Ctx.ReadBuf(r.dst, r.dstOff, r.rows*r.cols)) == r.want
}

func (c *resCtx) NbPutSub(src rt.Buffer, srcOff int, g rt.Global, rank, off, ld, rows, cols int) rt.Handle {
	r := &retryPut{c: c, src: src, srcOff: srcOff, g: g, rank: rank, off: off, ld: ld, rows: rows, cols: cols}
	if c.sum != nil && !c.cfg.NoChecksum {
		r.want = rt.Checksum(c.Ctx.ReadBuf(src, srcOff, rows*cols))
	}
	c.ops++
	r.op = c.ops
	r.issue()
	return r
}

func (r *retryPut) issue() {
	r.h = r.c.Ctx.NbPutSub(r.src, r.srcOff, r.g, r.rank, r.off, r.ld, r.rows, r.cols)
}

func (r *retryPut) verify() bool {
	if r.c.sum == nil || r.c.cfg.NoChecksum {
		return true
	}
	return r.c.sum.ChecksumRegion(r.g, r.rank, r.off, r.ld, r.rows, r.cols) == r.want
}

// Wait drives the recovery loop for the wrapper's own handles and passes
// everything else through.
func (c *resCtx) Wait(h rt.Handle) {
	switch r := h.(type) {
	case *retryGet:
		c.recover(r.rank, r.op, "get", &r.attempt, func(limit time.Duration) bool {
			return pollUntil(r.h, limit)
		}, r.verify, r.issue)
	case *retryPut:
		c.recover(r.rank, r.op, "put", &r.attempt, func(limit time.Duration) bool {
			return pollUntil(r.h, limit)
		}, r.verify, r.issue)
	default:
		c.Ctx.Wait(h)
	}
}

// recover runs the shared timeout/verify/retry loop of one op: poll to the
// attempt deadline, verify the payload end-to-end, re-issue with doubled
// (capped) timeout on either failure, and fail loudly with rank and op
// context once attempts are exhausted.
func (c *resCtx) recover(target int, op int64, kind string, attempt *int,
	poll func(time.Duration) bool, verify func() bool, reissue func()) {
	t0 := time.Now()
	defer func() {
		waited := time.Since(t0).Seconds()
		c.Stats().WaitTime += waited
		c.observe(target, waited)
	}()
	limit := c.cfg.OpTimeout
	for {
		ok := poll(limit)
		if ok {
			if verify() {
				return
			}
			c.Stats().ChecksumErrors++
			c.Stats().FaultRefetches++
		} else {
			c.Stats().FaultRetries++
		}
		c.noteFailure()
		*attempt++
		if *attempt >= c.cfg.MaxAttempts {
			panic(fmt.Sprintf("faults: rank %d: one-sided %s targeting rank %d failed after %d attempts (op %d): transfer lost or corrupted beyond recovery",
				c.Rank(), kind, target, *attempt, op))
		}
		limit *= 2
		if limit > c.cfg.MaxBackoff {
			limit = c.cfg.MaxBackoff
		}
		reissue()
	}
}
