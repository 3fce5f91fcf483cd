// Package faults is the deterministic fault injector of the SRUMMA
// reproduction. It plants only faults a deployment can have, so the
// recovery that answers each of them can be gated without waiting for one:
//
//   - a rank dies at a one-sided op or mid-gemm (Crash) — answered by the
//     task ledger's salvage and resume (internal/core, internal/server);
//   - a local gemm's C block lands silently corrupted (BadBlock) — answered
//     by ABFT verification (internal/core).
//
// The third real class, a hang, needs no injector: the armci watchdog turns
// it into a DeadlockError naming the stuck ranks, and the cluster route
// replaces the node. A transfer that is lost, late or corrupted in flight is
// not planted: on armci a get is a memcpy, and on ipcrt a broken stream
// surfaces as a dead or wedged peer — the classes above.
//
// The package has two parts:
//
//   - Plan: a seedable, pure planner that decides — from (seed, rank,
//     op-index) alone — where a rank dies and which gemms corrupt their
//     output. The schedule is a pure function, so the same seed and
//     topology replay the identical fault sequence on every run.
//
//   - Inject: an rt.Ctx wrapper for the real engines that plants the
//     planned faults into the actual run (Shared keeps its counters at
//     process scope for a serving layer).
package faults

import "fmt"

// Class is a fault category.
type Class uint8

// The injected fault classes.
const (
	None     Class = iota
	Crash          // the issuing rank dies at this op
	BadBlock       // the local gemm's produced C block lands silently corrupted
)

func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case Crash:
		return "crash"
	case BadBlock:
		return "badblock"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Fault is one planned fault.
type Fault struct {
	Class Class
	// Elem and Bit locate the flipped bit of a BadBlock fault: bit Bit of
	// element Elem%n of the produced C view.
	Elem int
	Bit  uint
}

// Config parameterizes a fault plan. The zero value plans no faults.
type Config struct {
	Seed uint64

	// Crash plants one rank death: a deterministically chosen rank panics
	// (with rank and op context) at a deterministically chosen op index in
	// [0, CrashOpSpan) (default 32).
	Crash       bool
	CrashOpSpan int

	// BadBlockRate plants silent COMPUTE corruption: each local gemm's
	// produced C view has this probability of landing with one flipped
	// high-order bit. The operands that moved were correct; only ABFT
	// verification (internal/core) can see it.
	BadBlockRate float64

	// ComputeCrash plants one rank death INSIDE the task loop: a
	// deterministically chosen rank panics at a deterministically chosen
	// local-gemm index in [0, ComputeCrashOpSpan) (default 16) — the
	// mid-job death the block-level recovery ledger exists for.
	ComputeCrash       bool
	ComputeCrashOpSpan int
}

func (c Config) withDefaults() Config {
	if c.CrashOpSpan <= 0 {
		c.CrashOpSpan = 32
	}
	if c.ComputeCrashOpSpan <= 0 {
		c.ComputeCrashOpSpan = 16
	}
	return c
}

// Validate rejects a malformed configuration.
func (c Config) Validate() error {
	if c.BadBlockRate < 0 || c.BadBlockRate > 1 {
		return fmt.Errorf("faults: bad-block rate %g outside [0,1]", c.BadBlockRate)
	}
	return nil
}

// Plan is a materialized fault schedule for one topology. All methods are
// pure and safe for concurrent use from every rank.
type Plan struct {
	cfg        Config
	nprocs     int
	crashRank  int
	crashOp    int
	gcrashRank int // compute-crash rank (-1 when not planned)
	gcrashOp   int // compute-crash local-gemm index
}

// NewPlan builds the deterministic schedule for nprocs ranks.
func NewPlan(cfg Config, nprocs int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nprocs <= 0 {
		return nil, fmt.Errorf("faults: %d ranks", nprocs)
	}
	cfg = cfg.withDefaults()
	p := &Plan{cfg: cfg, nprocs: nprocs, crashRank: -1, crashOp: -1, gcrashRank: -1, gcrashOp: -1}
	if cfg.Crash {
		h := splitmix(cfg.Seed ^ 0x4352415348) // "CRASH"
		p.crashRank = int(h % uint64(nprocs))
		h = splitmix(h)
		p.crashOp = int(h % uint64(cfg.CrashOpSpan))
	}
	if cfg.ComputeCrash {
		h := splitmix(cfg.Seed ^ 0x47454d4d43524153) // "GEMMCRAS"
		p.gcrashRank = int(h % uint64(nprocs))
		h = splitmix(h)
		p.gcrashOp = int(h % uint64(cfg.ComputeCrashOpSpan))
	}
	return p, nil
}

// Config returns the (defaulted) configuration behind the plan.
func (p *Plan) Config() Config { return p.cfg }

// NProcs returns the topology size the plan was built for.
func (p *Plan) NProcs() int { return p.nprocs }

// CrashPoint returns the planned (rank, op) of the injected crash, or
// (-1, -1) when no crash is planned.
func (p *Plan) CrashPoint() (rank, op int) { return p.crashRank, p.crashOp }

// At returns the fault planted into the op-index'th one-sided operation
// issued by rank: the planned crash, or none.
func (p *Plan) At(rank, op int) Fault {
	if rank == p.crashRank && op == p.crashOp {
		return Fault{Class: Crash}
	}
	return Fault{}
}

// ComputeCrashPoint returns the planned (rank, local-gemm index) of the
// injected compute crash, or (-1, -1) when none is planned.
func (p *Plan) ComputeCrashPoint() (rank, op int) { return p.gcrashRank, p.gcrashOp }

// AtGemm returns the fault planted into the op-index'th local gemm
// executed by rank — a stream independent of the one-sided one, a pure
// function of (seed, rank, op). BadBlock faults flip an EXPONENT bit
// (52..62, never the sign) of one element of the produced C view: the
// element at least doubles or halves. That clears
// ABFT's block-sum tolerance unless the element is tiny against the view's
// accumulated magnitude — an element near zero in a view of signed values
// can move by less than the tolerance and go unseen. A mantissa flip would
// hide that way far more often.
func (p *Plan) AtGemm(rank, op int) Fault {
	if rank == p.gcrashRank && op == p.gcrashOp {
		return Fault{Class: Crash}
	}
	if p.cfg.BadBlockRate <= 0 {
		return Fault{}
	}
	h := splitmix(splitmix(p.cfg.Seed^0x4241444241444221^uint64(rank)*0x9e3779b97f4a7c15) ^ uint64(op)*0xbf58476d1ce4e5b9)
	u := float64(h>>11) / float64(1<<53)
	if u < p.cfg.BadBlockRate {
		h = splitmix(h)
		return Fault{Class: BadBlock, Elem: int(h % (1 << 30)), Bit: 52 + uint((h>>32)%11)}
	}
	return Fault{}
}

// splitmix is the splitmix64 finalizer: the repo-standard way to turn a
// seed and a counter into well-mixed bits (see mat.RNG).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
