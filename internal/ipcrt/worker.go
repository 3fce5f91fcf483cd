package ipcrt

// The worker process. Every rank of the multi-process engine is one OS
// process running workerMain: it dials the coordinator's unix socket,
// announces its rank, opens its own RMA listener, and then executes the
// jobs the coordinator dispatches. Workers are usually the SAME executable
// as the coordinator, re-executed with the SRUMMA_IPC_WORKER environment
// set — MaybeWorker() at the top of a main() (or TestMain) diverts the
// process into worker mode before any CLI logic runs. cmd/srumma-worker
// is the standalone form of the same loop.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"srumma/internal/obs"
	"srumma/internal/rt"
)

// Environment contract between the launcher and a worker process.
const (
	envWorker    = "SRUMMA_IPC_WORKER"
	envRank      = "SRUMMA_IPC_RANK"
	envNP        = "SRUMMA_IPC_NP"
	envPPN       = "SRUMMA_IPC_PPN"
	envDir       = "SRUMMA_IPC_DIR"
	envCoord     = "SRUMMA_IPC_COORD"
	envTransport = "SRUMMA_IPC_TRANSPORT"
)

// Available reports whether this platform can run the multi-process
// engine (mmap shared segments + unix sockets).
func Available() bool { return mmapAvailable() }

func coordSockPath(dir string) string { return filepath.Join(dir, "coord.sock") }

func rankSockPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.sock", rank))
}

func segFilePath(dir string, segID int64, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("seg%d.r%d", segID, rank))
}

func removeSegFile(path string) { os.Remove(path) }

// MaybeWorker diverts the process into worker mode when the launcher's
// environment marker is present, never returning in that case. Every
// binary that launches ipc clusters by re-executing itself (the CLIs, the
// engine's own test binary) calls it first thing.
func MaybeWorker() {
	if os.Getenv(envWorker) == "" {
		return
	}
	os.Exit(workerMain())
}

func workerEnvInt(key string) int {
	v, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcrt worker: bad %s=%q: %v\n", key, os.Getenv(key), err)
		os.Exit(2)
	}
	return v
}

// WorkerParams describes one worker's identity and wiring — what the env
// contract carries for spawned workers, and what cmd/srumma-worker -join
// supplies explicitly for external ones.
type WorkerParams struct {
	Rank, NP, PPN int
	// Dir is the shared run directory for segment files and unix RMA
	// sockets (external workers must share a filesystem with the
	// coordinator's emulated nodes they co-host).
	Dir string
	// CoordAddr is the scheme-prefixed coordinator control address
	// ("unix:/path/coord.sock" or "tcp:host:port"). Empty = the default
	// unix socket under Dir.
	CoordAddr string
	// Transport "tcp" additionally opens a TCP RMA listener, advertised
	// in the hello so cross-domain peers dial it instead of the socket
	// file. Default "unix".
	Transport string
}

func workerMain() int {
	return RunWorker(WorkerParams{
		Rank:      workerEnvInt(envRank),
		NP:        workerEnvInt(envNP),
		PPN:       workerEnvInt(envPPN),
		Dir:       os.Getenv(envDir),
		CoordAddr: os.Getenv(envCoord),
		Transport: os.Getenv(envTransport),
	})
}

// RunWorker runs one worker rank to completion: dial the coordinator,
// open RMA listeners, hello, then serve jobs until shutdown. Returns the
// process exit code.
func RunWorker(p WorkerParams) int {
	rank, dir := p.Rank, p.Dir
	topo := rt.Topology{NProcs: p.NP, ProcsPerNode: p.PPN}
	if err := topo.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ipcrt worker: %v\n", err)
		return 2
	}

	coordAddr := p.CoordAddr
	if coordAddr == "" {
		coordAddr = "unix:" + coordSockPath(dir)
	}
	conn, err := dialAddr(coordAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcrt worker %d: dialing coordinator: %v\n", rank, err)
		return 2
	}
	cc := newCoordClient(conn)
	c := newCtx(rank, topo, dir, cc)

	ln, err := net.Listen("unix", rankSockPath(dir, rank))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcrt worker %d: RMA listener: %v\n", rank, err)
		return 2
	}
	defer ln.Close()
	go c.serveRMA(ln)

	// The TCP RMA listener (tcp transport only): same protocol, same
	// serve loop, a different scheme in the address table.
	tcpPort := int64(0)
	if p.Transport == "tcp" {
		tln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipcrt worker %d: TCP RMA listener: %v\n", rank, err)
			return 2
		}
		defer tln.Close()
		go c.serveRMA(tln)
		tcpPort = int64(tln.Addr().(*net.TCPAddr).Port)
	}

	// The hello declares "listener up, ready for jobs"; the coordinator
	// dispatches only after every rank has said it, so peers can dial
	// each other unconditionally once a job is running.
	if err := cc.write(&frame{Op: opHello, P: [5]int64{int64(rank), tcpPort}}); err != nil {
		fmt.Fprintf(os.Stderr, "ipcrt worker %d: hello: %v\n", rank, err)
		return 2
	}
	go cc.readLoop()

	for {
		select {
		case spec := <-cc.jobs:
			res := c.runJob(spec)
			body, err := json.Marshal(res)
			if err != nil {
				body, _ = json.Marshal(&RankResult{Rank: rank, Err: fmt.Sprintf("marshaling result: %v", err)})
			}
			if err := cc.write(&frame{Op: opFin, Body: body}); err != nil {
				return 1
			}
		case <-cc.shutdown:
			c.closePeers()
			return 0
		case <-cc.dead:
			// Coordinator gone: nothing to report to, don't linger.
			return 1
		}
	}
}

// runJob executes one spec's registered body with fresh per-job accounting,
// recovering panics into the result like a team rank does.
func (c *ipcCtx) runJob(spec *JobSpec) *RankResult {
	// Failure-path test hooks.
	if spec.ExitRank == c.Rank() {
		os.Exit(spec.ExitCode)
	}
	if spec.HangRank == c.Rank() {
		select {}
	}

	res := &RankResult{Rank: c.Rank()}
	c.ResetStats()
	c.directMaps = 0
	var rec *obs.Recorder
	if spec.Trace {
		rec = obs.NewRecorder(c.topo.NProcs, 0)
		res.EpochUnixNano = rec.Epoch().UnixNano()
	}
	c.SetRecorder(rec)
	defer c.SetRecorder(nil)

	t0 := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Sprintf("panic: %v", p)
			}
		}()
		// Every worker rejects a malformed spec — or a body this process
		// does not have — the same way, before any of them enters a
		// collective.
		body, err := spec.body(c.topo.NProcs)
		if err != nil {
			res.Err = err.Error()
			return
		}
		// A panicking body deposits its salvage straight into res.
		out, err := body.Run(c, spec, res)
		if err != nil {
			res.Err = err.Error()
			return
		}
		if spec.ReturnC && out != nil {
			res.C, res.CRows, res.CCols = out.Data, out.Rows, out.Cols
		}
		c.freeJobSegments()
	}()
	if rec != nil {
		rec.RecordWall(c.Rank(), obs.KindJob, t0, time.Now())
		res.Events = rec.Events()
	}
	res.Stats = c.Stats()
	res.DirectMaps = c.directMaps
	res.MmapMallocs = c.mmapMallocs
	res.TCPPeers = c.tcpPeers
	return res
}

// coordClient is the worker's half of the control connection: the rank
// goroutine writes collective requests and FINs; readLoop routes the
// coordinator's frames back (there is at most one outstanding collective,
// the rank goroutine being one thread of one SPMD program).
type coordClient struct {
	conn net.Conn
	wmu  sync.Mutex

	jobs       chan *JobSpec
	barrierAck chan struct{}
	mallocAck  chan mallocReply
	freeAck    chan bool
	shutdown   chan struct{}
	dead       chan struct{}

	// peerAddrs is the coordinator's address table (opAddrs), written by
	// readLoop before any job is delivered — the jobs channel is the
	// happens-before edge to the rank goroutine that dials peers.
	peerAddrs []string

	deadOnce sync.Once
	deadErr  error
}

type mallocReply struct {
	segID  int64
	sizes  []int
	reused bool
}

func newCoordClient(conn net.Conn) *coordClient {
	return &coordClient{
		conn:       conn,
		jobs:       make(chan *JobSpec, 1),
		barrierAck: make(chan struct{}, 1),
		mallocAck:  make(chan mallocReply, 1),
		freeAck:    make(chan bool, 1),
		shutdown:   make(chan struct{}),
		dead:       make(chan struct{}),
	}
}

func (cc *coordClient) write(f *frame) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return writeFrame(cc.conn, f)
}

func (cc *coordClient) die(err error) {
	cc.deadOnce.Do(func() {
		cc.deadErr = err
		close(cc.dead)
		cc.conn.Close()
	})
}

func (cc *coordClient) readLoop() {
	for {
		f, err := readFrame(cc.conn)
		if err != nil {
			cc.die(fmt.Errorf("ipcrt: coordinator connection lost: %w", err))
			return
		}
		switch f.Op {
		case opJob:
			spec := &JobSpec{ExitRank: -1, HangRank: -1}
			if err := json.Unmarshal(f.Body, spec); err != nil {
				cc.die(fmt.Errorf("ipcrt: bad job spec: %w", err))
				return
			}
			cc.jobs <- spec
		case opBarrierAck:
			cc.barrierAck <- struct{}{}
		case opMallocAck:
			sizes64, err := getInt64s(f.Body)
			if err != nil {
				cc.die(err)
				return
			}
			sizes := make([]int, len(sizes64))
			for i, v := range sizes64 {
				sizes[i] = int(v)
			}
			cc.mallocAck <- mallocReply{segID: f.P[0], sizes: sizes, reused: f.P[1] != 0}
		case opFreeAck:
			cc.freeAck <- f.P[0] != 0
		case opAddrs:
			var addrs []string
			if err := json.Unmarshal(f.Body, &addrs); err != nil {
				cc.die(fmt.Errorf("ipcrt: bad address table: %w", err))
				return
			}
			cc.peerAddrs = addrs
		case opPing:
			// Answered from the read loop so a wedged job body cannot fake
			// liveness for the whole process — but a healthy worker always
			// pongs, even mid-job.
			if err := cc.write(&frame{Op: opPong, P: [5]int64{f.P[0]}}); err != nil {
				cc.die(fmt.Errorf("ipcrt: pong: %w", err))
				return
			}
		case opShutdown:
			close(cc.shutdown)
			return
		default:
			cc.die(fmt.Errorf("ipcrt: unexpected control frame %v from coordinator", f.Op))
			return
		}
	}
}

// barrier runs one counting-barrier round through the coordinator.
func (cc *coordClient) barrier() {
	if err := cc.write(&frame{Op: opBarrier}); err != nil {
		panic(fmt.Errorf("ipcrt: barrier send: %w", err))
	}
	select {
	case <-cc.barrierAck:
	case <-cc.shutdown:
		// Shutdown mid-collective: another rank failed or the coordinator is
		// tearing the cluster down; this barrier can never complete.
		os.Exit(0)
	case <-cc.dead:
		panic(cc.deadErr)
	}
}

// malloc registers this rank's segment size and returns the collective's
// segment id, the full per-rank size table, and whether the id names a
// parked pool segment to reinstate instead of creating files.
func (cc *coordClient) malloc(elems int) (int64, []int, bool) {
	if err := cc.write(&frame{Op: opMalloc, P: [5]int64{int64(elems)}}); err != nil {
		panic(fmt.Errorf("ipcrt: malloc send: %w", err))
	}
	select {
	case r := <-cc.mallocAck:
		return r.segID, r.sizes, r.reused
	case <-cc.shutdown:
		os.Exit(0)
		panic("unreachable")
	case <-cc.dead:
		panic(cc.deadErr)
	}
}

// free runs the collective release round for segID; pooled=true means the
// coordinator parked the segment and every mapping must be kept.
func (cc *coordClient) free(segID int64) (pooled bool) {
	if err := cc.write(&frame{Op: opFree, P: [5]int64{segID}}); err != nil {
		panic(fmt.Errorf("ipcrt: free send: %w", err))
	}
	select {
	case pooled = <-cc.freeAck:
		return pooled
	case <-cc.shutdown:
		os.Exit(0)
		panic("unreachable")
	case <-cc.dead:
		panic(cc.deadErr)
	}
}
