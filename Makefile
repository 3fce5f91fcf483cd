# Convenience targets for the SRUMMA reproduction.

GO ?= go

.PHONY: all build noasm test race cover bench benchmark benchmark-compare serve-smoke trace-smoke ipc-smoke cluster-smoke hier-smoke multihost-smoke repro chaos chaos-serve fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# The micro-kernel fallback for architectures without our assembly
# (microkernel_noasm.go) runs on no CI machine, so at least compile and vet
# it.
noasm:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mat

test:
	$(GO) test ./...
	$(GO) test -run=NONE -bench=BenchmarkGemm/512 -benchtime=1x ./internal/mat
	$(MAKE) serve-smoke

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper figure/table.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's one end-to-end + per-layer benchmark (BENCHMARK.json,
# benchmark/README.md): every workload untraced for the gated end-to-end
# metrics, then traced for the per-layer ones; results land in
# benchmark/out/. benchmark-compare sets two result files side by side:
#   make benchmark-compare OLD=before/result.json NEW=benchmark/out/result.json
benchmark:
	$(GO) run ./benchmark

benchmark-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# End-to-end smoke of the GEMM service: start srumma-serve (workload
# scheduler mode, elastic pool, result cache on), drive a class-tagged
# deadline-hinted mix of distinct operands (so the cache serves none of it)
# through srumma-load — small shapes are computed by
# their handlers while the pool is idle (sched.inline_dispatches in the
# /metrics the load tool embeds must be > 0) and queue behind a busy one,
# the large shape runs as an engine singleton, 429 backpressure exercised
# via a tiny queue (every result checked against the serial kernel) — then
# repeat part of the mix over the binary wire:
# identical operands must hit the result cache (the load tool asserts the
# echoed result digests match across wires). Finally SIGTERM and assert a
# clean drain (the server exits non-zero on a WatchdogError).
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/srumma-serve ./cmd/srumma-serve; \
	$(GO) build -o $$tmp/srumma-load ./cmd/srumma-load; \
	$$tmp/srumma-serve -addr 127.0.0.1:18711 -nprocs 4 -teams 1 -max-teams 2 \
	    -queue-cap 2 -batch-max 8 -cache-entries 64 & pid=$$!; \
	set +e; \
	$$tmp/srumma-load -addr http://127.0.0.1:18711 -concurrency 6 -requests 24 \
	    -mix 24x24x24,96x96x96,160x160x160 -classes interactive:2,batch:1 \
	    -repeat-operands 8 -deadline 5s -out $$tmp/bench.json; ok=$$?; \
	$$tmp/srumma-load -addr http://127.0.0.1:18711 -concurrency 4 -requests 12 \
	    -mix 96x96x96 -wire binary -min-cache-hits 1 -out $$tmp/bench_bin.json; okbin=$$?; \
	kill -TERM $$pid 2>/dev/null; wait $$pid; drain=$$?; \
	set -e; test $$ok -eq 0; test $$okbin -eq 0; test $$drain -eq 0; \
	grep -q '"interactive"' $$tmp/bench.json; grep -q '"batch"' $$tmp/bench.json; \
	grep -Eq '"inline_dispatches": [1-9]' $$tmp/bench.json; \
	grep -q '"wire": "binary"' $$tmp/bench_bin.json; \
	grep -q '"cache_hits"' $$tmp/bench_bin.json; \
	echo "serve-smoke: PASS (clean drain, class stats recorded, caller-run dispatches seen, binary wire + cache hit verified)"

# Trace both engines end to end: a traced multiply on the virtual-time
# model and on the real engine, Chrome trace-event JSON exported from
# each and validated, overlap ratio recorded in the run summaries. The
# real-engine run is held to an overlap floor of 0.5 (it measures 1.0): the
# run fails if the comm/compute overlap the paper claims regresses below it.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/srumma-trace ./cmd/srumma-trace; \
	$$tmp/srumma-trace -engine sim -n 400 -procs 4 -width 60 \
	    -chrome $$tmp/sim.json -out $$tmp/sim_run.json > /dev/null; \
	$$tmp/srumma-trace -engine real -n 256 -procs 4 -ppn 1 -width 60 \
	    -min-overlap 0.5 -chrome $$tmp/real.json -out $$tmp/real_run.json > /dev/null; \
	$$tmp/srumma-trace -validate $$tmp/sim.json; \
	$$tmp/srumma-trace -validate $$tmp/real.json; \
	grep -q '"overlap_ratio"' $$tmp/sim_run.json; \
	grep -q '"overlap_ratio"' $$tmp/real_run.json; \
	grep -q '"overlap_floor"' $$tmp/real_run.json; \
	echo "trace-smoke: PASS (both engines traced, Chrome exports valid, overlap floor held)"

# Multi-process engine gate: 2 emulated hosts x 2 ranks each on
# localhost, every rank an OS process (mmap segments inside a node,
# unix-socket RMA between nodes). All four transpose cases must be
# bit-identical to the in-process armci engine running the same job on
# the same topology, over the unix and the tcp transport; the coordinator
# and every worker run under -race (the workers re-execute the instrumented
# test binary). A traced ipc run then has to report a measured overlap ratio,
# and the two SRI1 wire fuzzers (frame codec, live TCP RMA server) each get
# ten seconds at whatever the wire currently is.
ipc-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) test -race -count=1 -run 'TestIPCBitIdentical|TestTCPBitIdentical' ./internal/ipcrt; \
	$(GO) test -run '^$$' -fuzz=FuzzIPCWire -fuzztime=10s ./internal/ipcrt; \
	$(GO) test -run '^$$' -fuzz=FuzzTCPWire -fuzztime=10s ./internal/ipcrt; \
	$(GO) run ./cmd/srumma-trace -engine ipc -n 192 -procs 4 -ppn 2 -width 60 \
	    -out $$tmp/ipc_run.json > /dev/null; \
	grep -q '"overlap_ratio"' $$tmp/ipc_run.json; \
	grep -q '"ppn": 2' $$tmp/ipc_run.json; \
	echo "ipc-smoke: PASS (4 processes bit-identical to armci under -race, traced overlap recorded, wire fuzzed 2x10s)"

# Cluster serving gate, race-enabled: /v1/multiply sharded across 2
# emulated worker nodes x 2 OS-process ranks each, all four transpose
# cases bit-identical to the in-process route, one induced worker death
# absorbed by node replacement + handler retry (HTTP 200, same bits), and
# one seeded mid-compute crash resumed from the salvaged task ledger
# rather than restarted. Coordinator and every worker run under -race.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterServe' ./internal/server

# Hierarchical (two-level) multiplication gate, race-enabled: a two-group
# run on the sim and ipc engines. The property tests pin hier-vs-flat
# BIT-identity across all four transpose cases on the armci and ipc
# engines — staged regions read in place and copied out, member fetches,
# the pooled (poisoned) band, cancel/resume, ABFT and transfer faults on
# band views — the sim test pins measured remote volume == the analytic
# per-level prediction for both paths across P with the volume crossover
# at exactly P = 16 and modeled hier time below flat from there on, and the
# serving tests cover the hier route end to end including the
# kill-one-group chaos resume and the staged/member-fetched counters.
hier-smoke:
	$(GO) test -race -count=1 ./internal/hier
	$(GO) test -race -count=1 -run 'TestExecutorMultipliesHeldRegionsInPlace' ./internal/core
	$(GO) test -race -count=1 -run 'TestHierIPC' ./internal/ipcrt
	$(GO) test -race -count=1 -run 'TestHierServe' ./internal/server
	@echo "hier-smoke: PASS (two-level bit-identical to flat on armci+ipc under -race, volume crossover at P=16)"

# Two-host deployment recipe: coordinator + external srumma-worker -join
# ranks over TCP on localhost (the same wiring split across real
# containers); the run summary must carry the cross-host overlap ratio.
multihost-smoke:
	sh scripts/multihost-trace.sh

# Regenerate the paper's full evaluation (figures 5-10, Table 1, model,
# isoefficiency, ablations, memory, block-size sweep, KLAPI projection).
repro:
	$(GO) run ./cmd/srumma-bench -all

# Fault injection on the real engine: every fault class, three seeds,
# recovery layer active (see DESIGN.md "Fault model") — a wrong product, a
# hang or a recovery counter that stayed idle fails the run — plus the
# serving-layer case of a team crash mid-batch requeueing the batch's
# unfinished tasks onto a replacement team.
chaos:
	$(GO) test -count=1 -run 'TestChaos' ./internal/faults
	$(GO) test -count=1 -run TestServerSchedChaosCrashRequeue ./internal/server

# End-to-end recovery gate, race-enabled: a real server under a seeded
# fault plan (mid-compute rank crash + silent block corruption) must
# return a bit-correct product for every accepted request, with the
# recovery counters proving jobs were resumed (not restarted) and
# corrupted blocks detected and recomputed. Also covers the
# circuit-breaker 503 path.
chaos-serve:
	$(GO) test -race -count=1 -run 'TestChaosServe|TestBreakerServes503' ./internal/server

# Short fuzzing session over the numeric kernels, index math, the fault
# planner, the binary wire decoder (crash-free on arbitrary bytes,
# encode/decode round-trip bit-identical, nothing non-finite admitted) and
# the block finite scan against its per-element reference.
fuzz:
	$(GO) test -fuzz=FuzzGemmMatchesNaive -fuzztime=30s ./internal/mat
	$(GO) test -fuzz=FuzzIntersect -fuzztime=15s ./internal/grid
	$(GO) test -fuzz=FuzzCyclicMapping -fuzztime=15s ./internal/grid
	$(GO) test -fuzz=FuzzPlan -fuzztime=15s ./internal/faults
	$(GO) test -fuzz=FuzzBinWire -fuzztime=15s ./internal/server
	$(GO) test -fuzz=FuzzFiniteScan -fuzztime=15s ./internal/server
	$(GO) test -fuzz=FuzzIPCWire -fuzztime=15s ./internal/ipcrt
	$(GO) test -fuzz=FuzzTCPWire -fuzztime=15s ./internal/ipcrt

clean:
	$(GO) clean ./...
