package server

import (
	"reflect"
	"testing"
)

// configSetters is the serving configuration surface: every exported Config
// field and who sets it — a benchmark workload (benchmark/workloads.go), a
// make target, or a deployment. A setting nobody sets is a constant or, when
// a test needs another value, an unexported field of Config.
var configSetters = []struct{ field, setBy string }{
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
}

// TestConfigFieldsHaveSetters pins Config's exported fields to
// configSetters: adding a field means adding its row and saying who sets it;
// removing one means removing its row.
func TestConfigFieldsHaveSetters(t *testing.T) {
	listed := map[string]bool{}
	for _, e := range configSetters {
		if e.setBy == "" {
			t.Errorf("Config.%s: the list names nobody who sets it", e.field)
		}
		listed[e.field] = true
	}
	ct := reflect.TypeOf(Config{})
	exported := map[string]bool{}
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); f.IsExported() {
			exported[f.Name] = true
			if !listed[f.Name] {
				t.Errorf("Config.%s is not in configSetters: say which workload, make target or deployment sets it, or make it a constant", f.Name)
			}
		}
	}
	for _, e := range configSetters {
		if !exported[e.field] {
			t.Errorf("configSetters lists %s, which is no exported Config field", e.field)
		}
	}
}
