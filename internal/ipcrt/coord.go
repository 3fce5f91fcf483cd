package ipcrt

// The coordinator: launches one worker process per rank, runs the control
// plane (hello, counting barrier, Malloc/Free segment registration),
// dispatches JobSpecs and collects RankResults. It lives in the launching
// process (a CLI, a test) — workers are re-executions of the same binary
// diverted by MaybeWorker, or an explicit cmd/srumma-worker path.
//
// Failure model: worker death is detected by the process watcher, not by
// a hung read — RunJob returns a *RankExitError naming the dead rank and
// its exit code or signal. A job that misses its watchdog with every
// process alive returns *DeadlockError with the unfinished ranks. Either
// way the cluster is poisoned (collective counters can no longer be
// trusted) and further jobs are refused; Close kills what remains.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/obs"
	"srumma/internal/rt"
)

// Config describes a cluster launch.
type Config struct {
	// NP is the total rank count; PPN is ranks per emulated node (the
	// shared-memory domain size). 2 nodes x 2 ppn on one machine is
	// NP=4, PPN=2: ranks 0,1 mmap each other, ranks 2,3 likewise, and
	// everything across the 0,1|2,3 cut goes over the socket protocol.
	NP, PPN int
	// Dir is the run directory holding the coordinator socket, per-rank
	// RMA sockets and segment files. Empty = a fresh temp dir, removed
	// by Close. Unix socket paths are length-limited; keep it short.
	Dir string
	// WorkerPath is the worker executable. Empty = this executable,
	// re-executed (its main must call ipcrt.MaybeWorker first).
	WorkerPath string
	// Stderr receives worker stderr/stdout (default os.Stderr).
	Stderr io.Writer
	// LaunchTimeout bounds worker spawn+hello (default 30s).
	LaunchTimeout time.Duration
	// Transport selects the inter-node RMA transport: "unix" (default)
	// keeps every cross-node frame on unix-domain sockets; "tcp" makes
	// each worker open a TCP RMA listener too and publishes both in the
	// per-rank address table, so peers pick by address scheme — unix
	// inside a shared-memory domain, TCP across domains. The control
	// plane follows the same choice.
	Transport string
	// ListenAddr binds the coordinator's TCP control listener (Transport
	// "tcp" only; default "127.0.0.1:0"). With NoSpawn this is the
	// address external workers -join.
	ListenAddr string
	// NoSpawn skips launching worker processes: the coordinator just
	// waits for NP external workers (cmd/srumma-worker -join) to report
	// in. Death detection then rides on the control connection instead
	// of a process watcher.
	NoSpawn bool
	// SegPoolCap bounds the persistent segment pool: collectively freed
	// segments (and every mapping of them) are parked and reused by the
	// next Malloc with an identical per-rank size table, so steady-state
	// jobs pay zero mmap/creat calls. 0 = default (12), negative =
	// disable pooling.
	SegPoolCap int
}

// defaultSegPoolCap holds one GEMM job's three operand profiles for a few
// distinct shapes; exact-match reuse keeps correctness trivial (stale
// contents are fully overwritten by the next job's loads).
const defaultSegPoolCap = 12

// death is one observed worker-process exit.
type death struct {
	rank int
	code int
	sig  string
}

// pong is one heartbeat reply, matched to its ping by sequence number.
type pong struct {
	rank int
	seq  int64
}

type workerHandle struct {
	rank     int
	cmd      *exec.Cmd // nil for external (NoSpawn) workers
	external bool
	conn     net.Conn
	wmu      sync.Mutex
	exited   chan struct{}
}

func (w *workerHandle) write(f *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, f)
}

// Cluster is a running set of worker processes.
type Cluster struct {
	topo   rt.Topology
	dir    string
	ownDir bool
	ln     net.Listener

	workers []*workerHandle

	// Collective state. Every rank runs the same SPMD program, so at most
	// one collective of each kind is in flight and counting suffices.
	collMu       sync.Mutex
	barrierCount int
	mallocCount  int
	mallocSizes  []int64
	freeCount    int
	freeSegID    int64
	segSeq       int64
	// The persistent segment pool: freed segments parked for exact
	// size-profile reuse, plus the size table of every live segment.
	segPoolCap int
	segPool    []pooledSeg
	segSizes   map[int64][]int64

	fins    chan *RankResult
	deaths  chan death
	pongs   chan pong
	pingSeq atomic.Int64

	mu       sync.Mutex
	poisoned error
	closed   bool
}

// pooledSeg is one parked segment: its id and the per-rank size table a
// future Malloc must match exactly to reuse it.
type pooledSeg struct {
	id    int64
	sizes []int64
}

// failGrace is how long RunJob waits for the remaining FINs after one
// rank reported a job failure (the others may be wedged in a collective
// the failed rank abandoned).
const failGrace = 2 * time.Second

// Launch starts NP workers and returns once every rank has said hello.
func Launch(cfg Config) (*Cluster, error) {
	topo := rt.Topology{NProcs: cfg.NP, ProcsPerNode: cfg.PPN}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if !Available() {
		return nil, fmt.Errorf("ipcrt: multi-process engine unavailable on this platform")
	}
	dir, ownDir := cfg.Dir, false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "srumma-ipc")
		if err != nil {
			return nil, err
		}
		ownDir = true
	}
	workerPath := cfg.WorkerPath
	if workerPath == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("ipcrt: resolving own executable for worker re-exec: %w", err)
		}
		workerPath = exe
	}
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	launchTimeout := cfg.LaunchTimeout
	if launchTimeout <= 0 {
		launchTimeout = 30 * time.Second
	}
	transport := cfg.Transport
	if transport == "" {
		transport = "unix"
	}
	if transport != "unix" && transport != "tcp" {
		if ownDir {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("ipcrt: unknown transport %q (want unix or tcp)", transport)
	}
	segPoolCap := cfg.SegPoolCap
	if segPoolCap == 0 {
		segPoolCap = defaultSegPoolCap
	} else if segPoolCap < 0 {
		segPoolCap = 0
	}

	// The control listener follows the transport so external workers can
	// -join over a real network address.
	var ln net.Listener
	var err error
	coordAddr := ""
	if transport == "tcp" {
		bind := cfg.ListenAddr
		if bind == "" {
			bind = "127.0.0.1:0"
		}
		ln, err = net.Listen("tcp", bind)
		if err == nil {
			coordAddr = "tcp:" + ln.Addr().String()
		}
	} else {
		ln, err = net.Listen("unix", coordSockPath(dir))
		coordAddr = "unix:" + coordSockPath(dir)
	}
	if err != nil {
		if ownDir {
			os.RemoveAll(dir)
		}
		return nil, fmt.Errorf("ipcrt: coordinator listener: %w", err)
	}

	cl := &Cluster{
		topo:        topo,
		dir:         dir,
		ownDir:      ownDir,
		ln:          ln,
		workers:     make([]*workerHandle, cfg.NP),
		mallocSizes: make([]int64, cfg.NP),
		segPoolCap:  segPoolCap,
		segSizes:    make(map[int64][]int64),
		fins:        make(chan *RankResult, cfg.NP),
		deaths:      make(chan death, cfg.NP*2),
		pongs:       make(chan pong, cfg.NP*4),
	}

	if !cfg.NoSpawn {
		for rank := 0; rank < cfg.NP; rank++ {
			cmd := exec.Command(workerPath)
			cmd.Env = append(os.Environ(),
				envWorker+"=1",
				envRank+"="+strconv.Itoa(rank),
				envNP+"="+strconv.Itoa(cfg.NP),
				envPPN+"="+strconv.Itoa(cfg.PPN),
				envDir+"="+dir,
				envCoord+"="+coordAddr,
				envTransport+"="+transport,
			)
			cmd.Stdout = stderr
			cmd.Stderr = stderr
			if err := cmd.Start(); err != nil {
				cl.killAll()
				cl.cleanup()
				return nil, fmt.Errorf("ipcrt: starting worker %d: %w", rank, err)
			}
			w := &workerHandle{rank: rank, cmd: cmd, exited: make(chan struct{})}
			cl.workers[rank] = w
			go func() {
				werr := cmd.Wait()
				code, sig := exitInfo(werr)
				cl.deaths <- death{rank: w.rank, code: code, sig: sig}
				close(w.exited)
			}()
		}
	}

	// Collect hellos: each inbound connection identifies its rank with
	// its first frame; P[1] advertises the worker's TCP RMA port (0 when
	// unix-only).
	rmaAddrs := make([]string, cfg.NP)
	conns := make(chan net.Conn)
	acceptErr := make(chan error, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			conns <- conn
		}
	}()
	deadline := time.After(launchTimeout)
	for need := cfg.NP; need > 0; {
		select {
		case conn := <-conns:
			conn.SetReadDeadline(time.Now().Add(launchTimeout))
			f, err := readFrame(conn)
			conn.SetReadDeadline(time.Time{})
			if err != nil || f.Op != opHello {
				conn.Close()
				continue
			}
			rank := int(f.P[0])
			if rank < 0 || rank >= cfg.NP {
				conn.Close()
				continue
			}
			if cl.workers[rank] == nil {
				cl.workers[rank] = &workerHandle{rank: rank, external: true, exited: make(chan struct{})}
			}
			if cl.workers[rank].conn != nil {
				conn.Close()
				continue
			}
			cl.workers[rank].conn = conn
			if port := f.P[1]; port > 0 && port <= 65535 {
				host := "127.0.0.1"
				if ra, ok := conn.RemoteAddr().(*net.TCPAddr); ok && ra.IP != nil && !ra.IP.IsUnspecified() {
					host = ra.IP.String()
				}
				rmaAddrs[rank] = "tcp:" + net.JoinHostPort(host, strconv.FormatInt(port, 10))
			}
			need--
		case d := <-cl.deaths:
			cl.killAll()
			cl.cleanup()
			return nil, fmt.Errorf("ipcrt: worker died during launch: %w", d.err())
		case err := <-acceptErr:
			cl.killAll()
			cl.cleanup()
			return nil, fmt.Errorf("ipcrt: accepting workers: %w", err)
		case <-deadline:
			cl.killAll()
			cl.cleanup()
			return nil, fmt.Errorf("ipcrt: timed out waiting for workers to report in")
		}
	}

	// Broadcast the per-rank address table before any job: every rank's
	// entry lists its unix RMA socket and, when it opened one, its TCP
	// listener. Peers select by scheme — unix inside a shared-memory
	// domain, TCP across domains — which is what makes the transport a
	// per-peer decision instead of a global mode.
	table := make([]string, cfg.NP)
	for rank := range table {
		table[rank] = "unix:" + rankSockPath(dir, rank)
		if rmaAddrs[rank] != "" {
			table[rank] += "|" + rmaAddrs[rank]
		}
	}
	body, err := json.Marshal(table)
	if err != nil {
		cl.killAll()
		cl.cleanup()
		return nil, fmt.Errorf("ipcrt: marshaling address table: %w", err)
	}
	cl.broadcast(&frame{Op: opAddrs, Body: body})

	for _, w := range cl.workers {
		go cl.handleWorker(w)
	}
	return cl, nil
}

// Topo returns the cluster topology.
func (cl *Cluster) Topo() rt.Topology { return cl.topo }

// Dir returns the run directory.
func (cl *Cluster) Dir() string { return cl.dir }

// Addr returns the scheme-prefixed control-listener address external
// workers would -join ("tcp:host:port", or "unix:/path" for the default
// transport).
func (cl *Cluster) Addr() string {
	if cl.ln == nil {
		return ""
	}
	return cl.ln.Addr().Network() + ":" + cl.ln.Addr().String()
}

// handleWorker routes one worker's control frames.
func (cl *Cluster) handleWorker(w *workerHandle) {
	if w.external {
		// No process watcher for a joined worker: the control connection
		// is the liveness signal.
		defer func() {
			cl.mu.Lock()
			closed := cl.closed
			cl.mu.Unlock()
			if !closed {
				cl.deaths <- death{rank: w.rank, code: -1, sig: "control connection lost"}
			}
			close(w.exited)
		}()
	}
	for {
		f, err := readFrame(w.conn)
		if err != nil {
			return // process watcher (or the defer above) reports the death
		}
		switch f.Op {
		case opBarrier:
			cl.collBarrier()
		case opMalloc:
			cl.collMalloc(w.rank, f.P[0])
		case opFree:
			cl.collFree(f.P[0])
		case opPong:
			select {
			case cl.pongs <- pong{rank: w.rank, seq: f.P[0]}:
			default: // stale heartbeat backlog; drop
			}
		case opFin:
			res := &RankResult{Rank: w.rank}
			if err := json.Unmarshal(f.Body, res); err != nil {
				res.Err = fmt.Sprintf("unmarshaling FIN: %v", err)
			}
			cl.fins <- res
		default:
			// A confused worker; drop the frame. The job watchdog will
			// surface the stall if the protocol is truly broken.
		}
	}
}

func (cl *Cluster) broadcast(f *frame) {
	for _, w := range cl.workers {
		if w.conn != nil {
			w.write(f) // write errors surface via the process watcher
		}
	}
}

func (cl *Cluster) collBarrier() {
	cl.collMu.Lock()
	cl.barrierCount++
	done := cl.barrierCount == cl.topo.NProcs
	if done {
		cl.barrierCount = 0
	}
	cl.collMu.Unlock()
	if done {
		cl.broadcast(&frame{Op: opBarrierAck})
	}
}

// collMalloc completes when every rank has declared its size; a parked
// segment whose per-rank size table matches exactly is reused (P[1]=1 in
// the ack) so workers skip file creation and mmap entirely.
func (cl *Cluster) collMalloc(rank int, elems int64) {
	cl.collMu.Lock()
	cl.mallocSizes[rank] = elems
	cl.mallocCount++
	done := cl.mallocCount == cl.topo.NProcs
	var segID, reused int64
	var sizes []byte
	if done {
		cl.mallocCount = 0
		segID = -1
		for i, p := range cl.segPool {
			if sizesEqual(p.sizes, cl.mallocSizes) {
				segID, reused = p.id, 1
				cl.segPool = append(cl.segPool[:i], cl.segPool[i+1:]...)
				break
			}
		}
		if segID < 0 {
			segID = cl.segSeq
			cl.segSeq++
		}
		table := make([]int64, len(cl.mallocSizes))
		copy(table, cl.mallocSizes)
		cl.segSizes[segID] = table
		sizes = putInt64s(table)
	}
	cl.collMu.Unlock()
	if done {
		cl.broadcast(&frame{Op: opMallocAck, P: [5]int64{segID, reused}, Body: sizes})
	}
}

// collFree completes the release round. Instead of tearing the segment
// down, the coordinator parks it in the pool when there is room (P[0]=1
// in the ack tells every worker to keep its mappings).
func (cl *Cluster) collFree(segID int64) {
	cl.collMu.Lock()
	cl.freeSegID = segID
	cl.freeCount++
	done := cl.freeCount == cl.topo.NProcs
	var pooled int64
	if done {
		cl.freeCount = 0
		id := cl.freeSegID
		if sizes := cl.segSizes[id]; sizes != nil && len(cl.segPool) < cl.segPoolCap {
			cl.segPool = append(cl.segPool, pooledSeg{id: id, sizes: sizes})
			pooled = 1
		} else {
			delete(cl.segSizes, id)
		}
	}
	cl.collMu.Unlock()
	if done {
		cl.broadcast(&frame{Op: opFreeAck, P: [5]int64{pooled}})
	}
}

func sizesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// poison marks the cluster unusable for good after its first failure, and
// returns err.
func (cl *Cluster) poison(err error) error {
	cl.mu.Lock()
	if cl.poisoned == nil {
		cl.poisoned = err
	}
	cl.mu.Unlock()
	return err
}

// usable refuses op on a closed or poisoned cluster.
func (cl *Cluster) usable(op string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return fmt.Errorf("ipcrt: %s on closed cluster", op)
	}
	if cl.poisoned != nil {
		return fmt.Errorf("ipcrt: cluster poisoned by earlier failure: %w", cl.poisoned)
	}
	return nil
}

// err is the typed failure of one observed worker exit.
func (d death) err() error { return &RankExitError{Rank: d.rank, ExitCode: d.code, Signal: d.sig} }

// RunJob dispatches one spec to every rank and collects all results.
// timeout == 0 disables the watchdog. On worker death it returns
// *RankExitError (errors.Is rt.ErrRankExited); on a missed deadline with
// live processes, *DeadlockError (errors.Is rt.ErrRankDeadlocked). Both
// poison the cluster, as does any per-rank job failure — the collective
// counters can't be realigned once ranks diverge. A malformed spec is
// refused with *SpecError before anything is sent, and poisons nothing.
func (cl *Cluster) RunJob(spec *JobSpec, timeout time.Duration) ([]*RankResult, error) {
	if err := spec.Validate(cl.topo.NProcs); err != nil {
		return nil, err
	}
	if err := cl.usable("RunJob"); err != nil {
		return nil, err
	}
	// Drain deaths that occurred between jobs.
	select {
	case d := <-cl.deaths:
		return nil, cl.poison(d.err())
	default:
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("ipcrt: marshaling job spec: %w", err)
	}
	cl.broadcast(&frame{Op: opJob, Body: body})

	results := make([]*RankResult, cl.topo.NProcs)
	var watchdog <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		watchdog = t.C
	}
	var grace <-chan time.Time
	var jobErr error
	got := 0
	for got < cl.topo.NProcs {
		select {
		case res := <-cl.fins:
			if results[res.Rank] == nil {
				results[res.Rank] = res
				got++
			}
			if res.Err != "" && jobErr == nil {
				jobErr = &RankJobError{Rank: res.Rank, Msg: res.Err}
				g := time.NewTimer(failGrace)
				defer g.Stop()
				grace = g.C
			}
		case d := <-cl.deaths:
			return results, cl.poison(d.err())
		case <-grace:
			return results, cl.poison(jobErr)
		case <-watchdog:
			if jobErr != nil {
				return results, cl.poison(jobErr)
			}
			var pending []int
			for rank, r := range results {
				if r == nil {
					pending = append(pending, rank)
				}
			}
			return results, cl.poison(&DeadlockError{Timeout: timeout, Pending: pending})
		}
	}
	if jobErr != nil {
		return results, cl.poison(jobErr)
	}
	return results, nil
}

// Ping broadcasts a heartbeat and waits for every rank's matching pong —
// the node supervisor's between-jobs health check. A missed deadline or a
// death poisons the cluster exactly like a failed job: a rank that cannot
// answer a ping cannot be trusted to count collectives either.
func (cl *Cluster) Ping(timeout time.Duration) error {
	if err := cl.usable("Ping"); err != nil {
		return err
	}
	seq := cl.pingSeq.Add(1)
	cl.broadcast(&frame{Op: opPing, P: [5]int64{seq}})
	t := time.NewTimer(timeout)
	defer t.Stop()
	seen := make([]bool, cl.topo.NProcs)
	for need := cl.topo.NProcs; need > 0; {
		select {
		case p := <-cl.pongs:
			if p.seq == seq && !seen[p.rank] {
				seen[p.rank] = true
				need--
			}
		case d := <-cl.deaths:
			return cl.poison(d.err())
		case <-t.C:
			var pending []int
			for rank, ok := range seen {
				if !ok {
					pending = append(pending, rank)
				}
			}
			return cl.poison(&DeadlockError{Timeout: timeout, Pending: pending})
		}
	}
	return nil
}

// Kill forcibly terminates one worker (supervision tests: an induced
// death the heartbeat or the next job must surface as rt.ErrRankExited).
func (cl *Cluster) Kill(rank int) error {
	if rank < 0 || rank >= len(cl.workers) || cl.workers[rank] == nil {
		return fmt.Errorf("ipcrt: Kill(%d): no such worker", rank)
	}
	w := cl.workers[rank]
	if w.cmd != nil && w.cmd.Process != nil {
		return w.cmd.Process.Kill()
	}
	if w.conn != nil {
		return w.conn.Close()
	}
	return nil
}

// killAll forcibly terminates every worker process.
func (cl *Cluster) killAll() {
	for _, w := range cl.workers {
		if w == nil {
			continue
		}
		if w.cmd != nil && w.cmd.Process != nil {
			w.cmd.Process.Kill()
		} else if w.conn != nil {
			w.conn.Close()
		}
	}
}

func (cl *Cluster) cleanup() {
	if cl.ln != nil {
		cl.ln.Close()
	}
	if cl.ownDir {
		os.RemoveAll(cl.dir)
	}
}

// Close shuts the cluster down: polite shutdown frames, a grace period,
// then SIGKILL for stragglers. Idempotent.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cl.mu.Unlock()

	cl.broadcast(&frame{Op: opShutdown})
	deadline := time.After(2 * time.Second)
	for _, w := range cl.workers {
		if w == nil || w.conn == nil {
			continue
		}
		select {
		case <-w.exited:
		case <-deadline:
			if w.cmd != nil && w.cmd.Process != nil {
				w.cmd.Process.Kill()
			} else {
				w.conn.Close()
			}
			<-w.exited
		}
	}
	cl.cleanup()
	return nil
}

// MergeEvents shifts per-worker trace events onto the given epoch (the
// coordinator-side recorder's) using each result's worker epoch: all
// processes share one machine clock, so a plain offset aligns the lanes.
func MergeEvents(results []*RankResult, epoch time.Time) []obs.Event {
	var out []obs.Event
	for _, r := range results {
		if r == nil {
			continue
		}
		shift := float64(r.EpochUnixNano-epoch.UnixNano()) / 1e9
		for _, e := range r.Events {
			e.Start += shift
			e.End += shift
			out = append(out, e)
		}
	}
	return out
}
