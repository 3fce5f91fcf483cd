package obs

import (
	"strings"
	"testing"
)

// Golden test for the 0.0.4 text exposition: a registry with every metric
// kind renders byte-for-byte stably (Snapshot is name-sorted).
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(3)
	r.Gauge("breaker.state./multiply").Set(1)
	r.Float("sched.service_s").Add(0.25)
	r.Counter("sched.inline_dispatches").Add(2)
	r.Histogram("sched.queue_wait.batch") // empty: quantiles export as 0

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE breaker_state__multiply untyped
breaker_state__multiply 1
# TYPE sched_inline_dispatches untyped
sched_inline_dispatches 2
# TYPE sched_queue_wait_batch_count untyped
sched_queue_wait_batch_count 0
# TYPE sched_queue_wait_batch_max_s untyped
sched_queue_wait_batch_max_s 0
# TYPE sched_queue_wait_batch_mean_s untyped
sched_queue_wait_batch_mean_s 0
# TYPE sched_queue_wait_batch_p50_s untyped
sched_queue_wait_batch_p50_s 0
# TYPE sched_queue_wait_batch_p99_s untyped
sched_queue_wait_batch_p99_s 0
# TYPE sched_service_s untyped
sched_service_s 0.25
# TYPE server_requests untyped
server_requests 3
`
	if b.String() != want {
		t.Fatalf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.requests":   "server_requests",
		"breaker.state./x":  "breaker_state__x",
		"9lives":            "_lives",
		"ok_name:subsystem": "ok_name:subsystem",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
