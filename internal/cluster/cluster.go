// Package cluster shards GEMM jobs across a registry of worker NODES —
// each node one ipcrt coordinator owning a pool of OS-process ranks — and
// supervises their lifecycle: launch, heartbeat health checks, and
// replace-on-death. The serving layer routes jobs here instead of running
// them in-process; a node failure surfaces as the same typed errors the
// retry budget and circuit breaker already understand (rt.ErrRankExited,
// rt.ErrRankDeadlocked), so worker death folds into the existing
// salvage/resume policy rather than growing a second recovery path.
//
// An ipcrt Cluster is single-use after ANY failure (its collective
// counters cannot be realigned once ranks diverge), which makes node
// replacement the unit of repair: on a failed job the pool synchronously
// tears the poisoned cluster down and launches a fresh one — with a fresh
// segment pool — before returning the original error to the caller's
// retry loop.
package cluster

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/faults"
	"srumma/internal/ipcrt"
	_ "srumma/internal/job" // the GEMM body Run validates and the workers run
	"srumma/internal/obs"
)

// Config describes a node pool.
type Config struct {
	// Nodes is how many independent worker nodes (ipcrt clusters) to run.
	Nodes int
	// NP and PPN shape each node: NP OS-process ranks, PPN per emulated
	// shared-memory domain. Every node is launched identically so any job
	// can land on any node.
	NP, PPN int
	// Transport selects each node's inter-domain RMA transport ("unix"
	// default, "tcp" for the scheme-picked TCP path).
	Transport string
	// ListenAddr, with Transport "tcp", binds each node coordinator's
	// control listener at a fixed "host:port" instead of an ephemeral
	// one: node i listens on port+i (port 0 stays ephemeral). The bound
	// address is what external workers -join; it appears per node in
	// Snapshot.
	ListenAddr string
	// WorkerPath is the worker executable (empty = re-exec self; the
	// binary's main must call ipcrt.MaybeWorker first).
	WorkerPath string
	// Dir, when set, roots each node's run directory at Dir/node<i>.
	// Empty = per-node temp dirs.
	Dir string
	// Stderr receives worker process output (default os.Stderr).
	Stderr io.Writer
	// LaunchTimeout bounds a node launch (spawn + hellos), default 30s.
	LaunchTimeout time.Duration
	// JobTimeout is the per-job deadlock watchdog (default 2m).
	JobTimeout time.Duration
	// HeartbeatEvery enables the background health checker: every period,
	// idle nodes are pinged and unresponsive ones replaced. 0 disables.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout bounds one ping round (default 5s).
	HeartbeatTimeout time.Duration
	// SegPoolCap forwards to each node's persistent segment pool
	// (0 = ipcrt default, negative disables).
	SegPoolCap int
	// Metrics, when set, receives pool counters (cluster.jobs,
	// cluster.worker_deaths, cluster.node_replaced, cluster.heartbeats).
	Metrics *obs.Registry
	// Logf, when set, receives supervision events (replacements, failed
	// relaunches).
	Logf func(format string, args ...any)
}

// node is one supervised worker node. mu serializes jobs on the node and
// protects cl across replacement; everything else is atomics so Snapshot
// never blocks behind a running job.
type node struct {
	id int

	mu sync.Mutex
	cl *ipcrt.Cluster

	healthy   atomic.Bool
	inflight  atomic.Int64
	jobs      atomic.Int64
	replaced  atomic.Int64
	lastErr   atomic.Value // string
	coordAddr atomic.Value // string; scheme-prefixed control address
}

// Pool is the node registry plus its supervisor.
type Pool struct {
	cfg   Config
	nodes []*node

	jobs       *obs.Counter
	deaths     *obs.Counter
	replacedC  *obs.Counter
	heartbeats *obs.Counter

	injMu    sync.Mutex
	injExit  *exitInjection
	injChaos *faults.Config

	hbStop chan struct{}
	hbDone chan struct{}

	closeMu sync.Mutex
	closed  bool
}

// exitInjection is a one-shot planted worker death (chaos tests: the next
// job dispatched through the pool carries it).
type exitInjection struct {
	rank, code int
}

// New launches every node and returns once all are serving. A node that
// fails to launch aborts the whole pool.
func New(cfg Config) (*Pool, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes", cfg.Nodes)
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	p := &Pool{cfg: cfg, nodes: make([]*node, cfg.Nodes)}
	if cfg.Metrics != nil {
		p.jobs = cfg.Metrics.Counter("cluster.jobs")
		p.deaths = cfg.Metrics.Counter("cluster.worker_deaths")
		p.replacedC = cfg.Metrics.Counter("cluster.node_replaced")
		p.heartbeats = cfg.Metrics.Counter("cluster.heartbeats")
	}
	for i := range p.nodes {
		nd := &node{id: i}
		cl, err := p.launchNode(i)
		if err != nil {
			for _, prev := range p.nodes[:i] {
				prev.cl.Close()
			}
			return nil, fmt.Errorf("cluster: launching node %d: %w", i, err)
		}
		nd.cl = cl
		nd.healthy.Store(true)
		nd.lastErr.Store("")
		nd.coordAddr.Store(cl.Addr())
		p.nodes[i] = nd
	}
	if cfg.HeartbeatEvery > 0 {
		p.hbStop = make(chan struct{})
		p.hbDone = make(chan struct{})
		go p.heartbeatLoop()
	}
	return p, nil
}

func (p *Pool) launchNode(id int) (*ipcrt.Cluster, error) {
	dir := ""
	if p.cfg.Dir != "" {
		// Replacement reuses the id, so the directory must be fresh each
		// launch: a poisoned cluster's socket and segment files linger
		// until its Close finishes.
		dir = filepath.Join(p.cfg.Dir, fmt.Sprintf("node%d-%d", id, time.Now().UnixNano()))
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, err
		}
	}
	return ipcrt.Launch(ipcrt.Config{
		NP:            p.cfg.NP,
		PPN:           p.cfg.PPN,
		Dir:           dir,
		WorkerPath:    p.cfg.WorkerPath,
		Stderr:        p.cfg.Stderr,
		LaunchTimeout: p.cfg.LaunchTimeout,
		Transport:     p.cfg.Transport,
		ListenAddr:    nodeListenAddr(p.cfg.ListenAddr, id),
		SegPoolCap:    p.cfg.SegPoolCap,
	})
}

// nodeListenAddr offsets a base "host:port" bind address by the node id,
// so a fixed -listen gives every node coordinator its own well-known
// control port. Port 0 (and an empty base) stay as given.
func nodeListenAddr(base string, id int) string {
	if base == "" || id == 0 {
		return base
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return base // Launch will reject it with a real error
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return base
	}
	return net.JoinHostPort(host, strconv.Itoa(port+id))
}

// Nodes returns the pool size.
func (p *Pool) Nodes() int { return len(p.nodes) }

// NP returns each node's rank count (the topology every sharded job runs
// on, which the serving layer needs for block assembly).
func (p *Pool) NP() int { return p.cfg.NP }

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// InjectExit plants a one-shot worker death: the next job dispatched
// through the pool kills the given rank at job start. Chaos-test hook.
func (p *Pool) InjectExit(rank, code int) {
	p.injMu.Lock()
	p.injExit = &exitInjection{rank: rank, code: code}
	p.injMu.Unlock()
}

// InjectChaos plants a one-shot fault plan on the next dispatched job.
func (p *Pool) InjectChaos(cfg *faults.Config) {
	p.injMu.Lock()
	p.injChaos = cfg
	p.injMu.Unlock()
}

// applyInjections arms at most one planted fault on spec (one-shot).
func (p *Pool) applyInjections(spec *ipcrt.JobSpec) {
	p.injMu.Lock()
	defer p.injMu.Unlock()
	if p.injExit != nil {
		spec.ExitRank, spec.ExitCode = p.injExit.rank, p.injExit.code
		p.injExit = nil
	}
	if p.injChaos != nil {
		spec.Chaos = p.injChaos
		p.injChaos = nil
	}
}

// Run places one job on a node and executes it. Partial per-rank results
// are returned even on failure — they carry the salvage (partial C +
// ledger bits) the serving layer's resume path feeds into the retry. A
// failed node is replaced synchronously before Run returns, so the retry
// that follows the error lands on a healthy cluster.
func (p *Pool) Run(spec *ipcrt.JobSpec, key PlaceKey) ([]*ipcrt.RankResult, error) {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return nil, fmt.Errorf("cluster: Run on closed pool")
	}
	p.closeMu.Unlock()

	// A malformed spec is refused here, before it can cost a node.
	if err := spec.Validate(p.cfg.NP); err != nil {
		return nil, err
	}
	p.applyInjections(spec)
	nd := p.acquire(key)
	defer nd.mu.Unlock()

	nd.inflight.Store(1)
	defer nd.inflight.Store(0)
	if p.jobs != nil {
		p.jobs.Inc()
	}
	nd.jobs.Add(1)

	results, err := nd.cl.RunJob(spec, p.cfg.JobTimeout)
	if err != nil {
		nd.lastErr.Store(err.Error())
		if p.deaths != nil {
			p.deaths.Inc()
		}
		p.replaceLocked(nd, err)
		return results, err
	}
	return results, nil
}

// replaceLocked swaps a poisoned node's cluster for a fresh launch. Called
// with nd.mu held. Two launch attempts; a node that cannot relaunch is
// marked unhealthy and the router routes around it.
func (p *Pool) replaceLocked(nd *node, cause error) {
	nd.healthy.Store(false)
	nd.cl.Close()
	p.logf("cluster: node %d down (%v), relaunching", nd.id, cause)
	for attempt := 0; attempt < 2; attempt++ {
		cl, err := p.launchNode(nd.id)
		if err != nil {
			p.logf("cluster: node %d relaunch attempt %d failed: %v", nd.id, attempt+1, err)
			continue
		}
		nd.cl = cl
		nd.healthy.Store(true)
		nd.coordAddr.Store(cl.Addr())
		nd.replaced.Add(1)
		if p.replacedC != nil {
			p.replacedC.Inc()
		}
		return
	}
	// Keep the poisoned cluster handle (it refuses jobs with a typed
	// error) rather than a nil that would panic a racing Run.
	p.logf("cluster: node %d is out of service", nd.id)
}

// heartbeatLoop pings idle nodes on a timer; a node that misses a ping is
// replaced in place. Busy nodes are skipped — the job watchdog owns them.
func (p *Pool) heartbeatLoop() {
	defer close(p.hbDone)
	t := time.NewTicker(p.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-p.hbStop:
			return
		case <-t.C:
		}
		if p.heartbeats != nil {
			p.heartbeats.Inc()
		}
		for _, nd := range p.nodes {
			if !nd.mu.TryLock() {
				continue // mid-job; the watchdog covers it
			}
			if err := nd.cl.Ping(p.cfg.HeartbeatTimeout); err != nil {
				nd.lastErr.Store(err.Error())
				if p.deaths != nil {
					p.deaths.Inc()
				}
				p.replaceLocked(nd, err)
			}
			nd.mu.Unlock()
		}
	}
}

// NodeStats is one node's supervision snapshot.
type NodeStats struct {
	ID       int    `json:"id"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
	Jobs     int64  `json:"jobs"`
	Replaced int64  `json:"replaced"`
	LastErr  string `json:"last_err,omitempty"`
	// CoordAddr is the node coordinator's control-listener address —
	// what an external worker would -join ("tcp:host:port", or the
	// run-dir unix socket on the default transport).
	CoordAddr string `json:"coord_addr,omitempty"`
}

// Snapshot reports per-node state without blocking behind running jobs.
func (p *Pool) Snapshot() []NodeStats {
	out := make([]NodeStats, len(p.nodes))
	for i, nd := range p.nodes {
		out[i] = NodeStats{
			ID:        nd.id,
			Healthy:   nd.healthy.Load(),
			Inflight:  nd.inflight.Load(),
			Jobs:      nd.jobs.Load(),
			Replaced:  nd.replaced.Load(),
			LastErr:   nd.lastErr.Load().(string),
			CoordAddr: nd.coordAddr.Load().(string),
		}
	}
	return out
}

// Close stops the supervisor and shuts every node down. Idempotent.
func (p *Pool) Close() error {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return nil
	}
	p.closed = true
	p.closeMu.Unlock()
	if p.hbStop != nil {
		close(p.hbStop)
		<-p.hbDone
	}
	for _, nd := range p.nodes {
		nd.mu.Lock()
		nd.cl.Close()
		nd.mu.Unlock()
	}
	return nil
}
