package srumma

// Public surface of the serving layer: GEMM-as-a-service on persistent
// engine teams. See cmd/srumma-serve for the standalone daemon and
// cmd/srumma-load for the load client.

import (
	"srumma/internal/armci"
	"srumma/internal/sched"
	"srumma/internal/server"
)

// Server is an HTTP GEMM service: a workload scheduler (batched small
// GEMMs, priority/deadline-aware dispatch, elastic team pooling) in front
// of a pool of persistent SRUMMA engine teams, with admission backpressure
// (429 + Retry-After priced from the observed service rate), size-based
// routing between the direct local kernel and the distributed engine,
// per-request deadlines enforced as cooperative cancellation, /metrics and
// /healthz, and graceful draining shutdown.
type Server = server.Server

// ServerConfig sizes a Server; the zero value gets serviceable defaults
// (4 ranks per team, 2 teams, queue capacity 8, scheduler dispatch).
type ServerConfig = server.Config

// ServerMetrics is the snapshot served by GET /metrics.
type ServerMetrics = server.MetricsSnapshot

// SchedSnapshot is the workload scheduler's section of a ServerMetrics
// snapshot: per-class queue depths, batch occupancy, deadline misses and
// pool elasticity counters.
type SchedSnapshot = sched.Snapshot

// NewServer builds a GEMM service and spins up its persistent engine teams.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// WatchdogError reports SPMD processes that missed an engine deadline: a
// one-shot run that timed out, or a persistent team whose ranks failed to
// park (leak) — see its Leaked field for who.
type WatchdogError = armci.WatchdogError
