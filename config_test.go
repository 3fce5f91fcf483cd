package srumma

import (
	"reflect"
	"testing"

	"srumma/internal/algs"
	"srumma/internal/cluster"
	"srumma/internal/core"
	"srumma/internal/ipcrt"
	"srumma/internal/pdgemm"
	"srumma/internal/rt"
	"srumma/internal/server"
	"srumma/internal/summa"
)

// configSetters is the configuration surface of the serving stack and of
// the layers below it, one table per config type: every exported field and
// who sets it — a benchmark workload (benchmark/workloads.go), a make
// target, a command, a deployment, a library or simulator option, or the
// layer above that forwards one of those. A setting nobody sets is a
// constant or, when a test needs another value, an unexported field.
var configSetters = map[reflect.Type][]struct{ field, setBy string }{
	reflect.TypeOf(server.Config{}): {
		{"NProcs", "workload: every serving config in benchmark/workloads.go (4, serve-hier-p16 16)"},
		{"ProcsPerNode", "workload: flatServer (2), serve-hier-p16 (4)"},
		{"Teams", "make serve-smoke: -teams 1"},
		{"QueueCap", "workload: flatServer and serve-hier-p16 (64)"},
		{"SmallMNK", "workload: benchmark/bench_test.go forces the distributed route (1)"},
		{"MaxDim", "deployment: the request size limit (-max-dim)"},
		{"DefaultTimeout", "deployment: the per-request deadline (-timeout)"},
		{"MaxTimeout", "deployment: the deadline cap and header/body wait of an embedding program"},
		{"TraceEvents", "deployment: serving-path tracing (-trace-events)"},
		{"ABFT", "deployment: the ABFT switch (-abft)"},
		{"Hier", "workload: serve-hier-p16"},
		{"Cluster", "workload: serve-cluster-256"},
		{"ClusterNodes", "workload: serve-cluster-256 (2)"},
		{"ClusterTransport", "deployment: the node RMA transport (-cluster-transport)"},
		{"ClusterListen", "deployment: the fixed control listeners external workers join (-listen)"},
		{"CacheEntries", "workload: serve-cache-revisit (64); make serve-smoke"},
	},
	reflect.TypeOf(cluster.Config{}): {
		{"Nodes", "server.Config.ClusterNodes (serve-cluster-256); benchmark/probe_cluster.go"},
		{"NP", "server.Config.NProcs; benchmark/probe_cluster.go"},
		{"PPN", "server.Config.ProcsPerNode; benchmark/probe_cluster.go"},
		{"Transport", "server.Config.ClusterTransport (deployment: -cluster-transport)"},
		{"ListenAddr", "server.Config.ClusterListen (deployment: -listen)"},
		{"JobTimeout", "server.Config.MaxTimeout"},
		{"HeartbeatEvery", "server (2 s); benchmark/probe_cluster.go turns it off (-1)"},
		{"Metrics", "server: its metrics registry, read by /metrics"},
	},
	reflect.TypeOf(ipcrt.Config{}): {
		{"NP", "cluster.Config.NP; srumma-trace -engine ipc -procs"},
		{"PPN", "cluster.Config.PPN; srumma-trace -engine ipc -ppn"},
		{"Dir", "srumma-trace -dir (make multihost-smoke)"},
		{"Transport", "cluster.Config.Transport; srumma-trace -transport"},
		{"ListenAddr", "cluster.Config.ListenAddr; srumma-trace -listen (make multihost-smoke)"},
		{"NoSpawn", "srumma-trace -no-spawn (make multihost-smoke)"},
	},
	reflect.TypeOf(rt.Topology{}): {
		{"NProcs", "srumma.NewCluster, ga.New, simrt.Run, server.New, ipcrt's coordinator and workers, srumma-plan -procs"},
		{"ProcsPerNode", "srumma.NewCluster, ga.New, the machine profile (simrt.Run), server.New, ipcrt, srumma-plan -ppn"},
		{"DomainSpansMachine", "srumma.NewCluster and ga.New (sharedMachine), the machine profile (simrt.Run), server.New and srumma-trace (ppn >= procs), srumma-plan -shared-machine"},
	},
	reflect.TypeOf(core.Options{}): {
		{"Case", "every caller: MultiplyOptions.Case, ga.MatMul, job.Run, bench.RunMatmul, srumma-plan -case"},
		{"Flavor", "algs.FlavorFor(platform) in bench.RunMatmul and srumma-trace; srumma-bench -fig 5 and SimOptions.ForceCopyShared force it"},
		{"NoDiagonalShift", "MultiplyOptions/SimOptions.NoDiagonalShift, ipcrt.JobSpec, srumma-plan/-trace -noshift"},
		{"NoSharedFirst", "MultiplyOptions/SimOptions.NoSharedFirst, srumma-bench -ablations, srumma-plan -nosharedfirst"},
		{"SingleBuffer", "MultiplyOptions.SingleBuffer, SimOptions.Blocking, ipcrt.JobSpec, srumma-trace -blocking"},
		{"MaxTaskK", "SimOptions.MaxTaskK, srumma-bench -blocksize, ipcrt.JobSpec (the server's maxTaskK seam), srumma-plan -maxk"},
		{"Cancel", "MultiplyOptions.Context; ipcrt.JobSpec.Cancel, the server's per-request context"},
		{"Ledger", "job.Run when ipcrt.JobSpec.UseLedger (every serving job)"},
		{"ABFT", "job.Run from ipcrt.JobSpec.ABFT (server.Config.ABFT, -abft)"},
	},
	reflect.TypeOf(algs.Options{}): {
		{"Options", "every row's core options: srumma.Cluster.Multiply, ga.MatMul, job.Run, bench.RunMatmul, srumma-trace"},
		{"NB", "MultiplyOptions.NB, SimOptions.NB (bench.RunMatmul)"},
		{"Scale", "ga.MatMul and job.Run (alpha, beta)"},
		{"Hier", "job.Run from ipcrt.JobSpec.Hier (server.Config.Hier, workload serve-hier-p16)"},
	},
	reflect.TypeOf(summa.Options{}): {
		{"Case", "algs.Resolve (algs.Options.Case)"},
		{"NB", "algs.Resolve (algs.Options.NB)"},
	},
	reflect.TypeOf(pdgemm.Options{}): {
		{"Case", "algs.Resolve (algs.Options.Case)"},
		{"NB", "algs.Resolve (algs.Options.NB)"},
	},
}

// TestConfigFieldsHaveSetters pins each config type's exported fields to its
// configSetters table: adding a field means adding its row and saying who
// sets it; removing one means removing its row.
func TestConfigFieldsHaveSetters(t *testing.T) {
	for ct, setters := range configSetters {
		listed := map[string]bool{}
		for _, e := range setters {
			if e.setBy == "" {
				t.Errorf("%s.%s: the list names nobody who sets it", ct, e.field)
			}
			listed[e.field] = true
		}
		exported := map[string]bool{}
		for i := 0; i < ct.NumField(); i++ {
			if f := ct.Field(i); f.IsExported() {
				exported[f.Name] = true
				if !listed[f.Name] {
					t.Errorf("%s.%s is not in configSetters: say which workload, make target, command or deployment sets it, or make it a constant", ct, f.Name)
				}
			}
		}
		for _, e := range setters {
			if !exported[e.field] {
				t.Errorf("configSetters lists %s.%s, which is no exported field", ct, e.field)
			}
		}
	}
}
