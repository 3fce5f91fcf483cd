// Command srumma-serve runs the GEMM service: persistent SRUMMA engine
// teams behind an admission-controlled HTTP front end.
//
//	srumma-serve -addr :8711 -nprocs 4 -teams 2
//
// Endpoints: POST /v1/multiply, GET /metrics, GET /healthz, GET /v1/info,
// and — with -trace-events — GET /debug/trace (Chrome trace-event JSON of
// the most recent engine/request/scheduler spans).
// SIGINT/SIGTERM triggers a graceful drain: in-flight requests finish (or
// hit their deadlines), then the engine teams are closed with leaked-rank
// detection.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	goruntime "runtime"
	"strings"
	"syscall"
	"time"

	"srumma/internal/armci"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/server"
)

// transportName resolves the empty default for log lines.
func transportName(t string) string {
	if t == "" {
		return "unix"
	}
	return t
}

// The flags live at package level so the README drift test can walk
// flag.CommandLine without running main.
var (
	addr             = flag.String("addr", ":8711", "listen address")
	nprocs           = flag.Int("nprocs", 4, "SPMD ranks per engine team (perfect square)")
	ppn              = flag.Int("procs-per-node", 0, "ranks per shared-memory domain (0: all)")
	teams            = flag.Int("teams", 0, "persistent engine teams, i.e. max concurrent SRUMMA jobs (0: 2)")
	queueCap         = flag.Int("queue-cap", 0, "admitted-request bound; overflow gets 429 (0: 4 per team, 8 by default)")
	smallMNK         = flag.Int("small-mnk", 0, "route products with M*N*K <= this to the local kernel (0: 128^3)")
	maxDim           = flag.Int("max-dim", 0, "reject matrix dimensions beyond this (0: 4096)")
	timeout          = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	kernelThreads    = flag.Int("kernel-threads", 0, "local-dgemm workers per rank (0: engine default)")
	drainGrace       = flag.Duration("drain-grace", 30*time.Second, "max time to drain in-flight work on shutdown")
	traceEvents      = flag.Int("trace-events", 0, "per-lane span ring size for GET /debug/trace (0: tracing off)")
	abft             = flag.Bool("abft", false, "verify every SRUMMA task's C block with Huang-Abraham checksums; corrupted blocks are restored and recomputed")
	abftTol          = flag.Float64("abft-tol", 0, "relative ABFT tolerance (0: engine default 1e-6)")
	maxTaskK         = flag.Int("max-task-k", 0, "SRUMMA task contraction cap; finer tasks mean finer recovery units (0: one task per K block)")
	retryBudget      = flag.Int("retry-budget", 0, "retries for recoverably-failed jobs, distributed (resumed) or small (restarted) (0: 2; negative: no retries)")
	retryBackoff     = flag.Duration("retry-backoff", 0, "base pre-retry backoff, doubling per attempt (0: 10ms)")
	cacheEntries     = flag.Int("cache-entries", 0, "content-addressed result cache capacity in entries; enables keyed 128-bit operand digests and result caching (0: off)")
	cacheBytes       = flag.Int64("cache-bytes", 0, "result cache capacity in bytes (0: 256 MiB when the cache is on)")
	clusterOn        = flag.Bool("cluster", false, "shard the distributed route across OS-process worker nodes instead of in-process teams")
	nodes            = flag.Int("nodes", 0, "cluster worker nodes (0: 2; needs -cluster)")
	clusterTransport = flag.String("cluster-transport", "", `node RMA transport: "unix" (default) or "tcp"`)
	clusterListen    = flag.String("listen", "", `fixed "host:port" for the node coordinators' TCP control listeners (node i binds port+i; the addresses srumma-worker -join dials; implies -cluster-transport tcp)`)
	clusterHeartbeat = flag.Duration("cluster-heartbeat", 0, "idle-node health-check period (0: 2s; negative: off)")
	hierOn           = flag.Bool("hier", false, "hierarchical routing mode: two-level multiply, outer SUMMA panels across rank groups, inner SRUMMA within each group")
	hierGroup        = flag.Int("hier-group", 0, "ranks per hierarchical group (0: one group per shared-memory domain; must nest in domains)")
)

func main() {
	// Cluster mode re-executes this binary for its node ranks; a worker
	// copy diverts here and never returns.
	ipcrt.MaybeWorker()

	log.SetFlags(0)
	log.SetPrefix("srumma-serve: ")

	flag.Parse()

	s, err := server.New(server.Config{
		NProcs:           *nprocs,
		ProcsPerNode:     *ppn,
		Teams:            *teams,
		QueueCap:         *queueCap,
		SmallMNK:         *smallMNK,
		MaxDim:           *maxDim,
		DefaultTimeout:   *timeout,
		KernelThreads:    *kernelThreads,
		TraceEvents:      *traceEvents,
		ABFT:             *abft,
		ABFTTol:          *abftTol,
		MaxTaskK:         *maxTaskK,
		RetryBudget:      *retryBudget,
		RetryBackoff:     *retryBackoff,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		Cluster:          *clusterOn,
		ClusterNodes:     *nodes,
		ClusterTransport: *clusterTransport,
		ClusterListen:    strings.TrimPrefix(*clusterListen, "tcp:"),
		ClusterHeartbeat: *clusterHeartbeat,
		Hier:             *hierOn,
		HierGroup:        *hierGroup,
	})
	if err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s: %d ranks/team, %d team(s), kernel %s, GOMAXPROCS %d",
		l.Addr(), *nprocs, s.Metrics().Sched.Workers, mat.KernelName(), goruntime.GOMAXPROCS(0))
	if *clusterOn {
		transport := *clusterTransport
		if transport == "" && *clusterListen != "" {
			transport = "tcp"
		}
		info := s.Metrics()
		log.Printf("cluster: %d worker nodes x %d ranks (ppn %d), transport %s",
			len(info.Cluster), *nprocs, *ppn, transportName(transport))
		if transport == "tcp" {
			for _, nd := range info.Cluster {
				log.Printf("cluster: node %d control listener %s (srumma-worker -join target)", nd.ID, nd.CoordAddr)
			}
		}
	}
	if *hierOn {
		info := s.Metrics()
		log.Printf("hierarchical: %d group(s), intra-group shape %s", info.HierGroups, info.HierGroupShape)
	}
	log.Printf("default kernel threads/rank: %d", armci.DefaultKernelThreads(*nprocs))

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("%s: draining (grace %s)", sig, *drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			log.Fatalf("serve: %v", err)
		}
		m := s.Metrics()
		fmt.Printf("served %d requests (%d rejected, %d errors, %d cancelled), %.2f GFLOP total\n",
			m.Completed, m.Rejected, m.Errors, m.Cancelled, m.FlopsTotal/1e9)
	case err := <-serveErr:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	}
}
