#!/bin/sh
# multihost-trace.sh — two-host (two-container) deployment recipe for the
# multi-process engine, ending in a cross-host traced multiply whose
# overlap ratio is printed and written to a run summary.
#
# Topology: NP ranks split into NP/PPN shared-memory domains. The
# coordinator (srumma-trace -engine ipc -no-spawn) binds a TCP control
# listener and waits; every rank is an EXTERNAL srumma-worker that joins
# over TCP. Ranks of one domain must share a machine (they mmap each
# other's segment files through -dir); distinct domains may live on
# different hosts — their traffic rides the TCP RMA protocol, and the
# recorded overlap ratio then measures communication hidden across a real
# host boundary.
#
# Real two-container use (host A runs the coordinator + domain 0, host B
# runs domain 1; DIR must be a path valid on each host — it is per-host
# scratch, only domain-mates share it):
#
#   hostA$ srumma-trace -engine ipc -no-spawn -procs 4 -ppn 2 -n 512 \
#            -listen 0.0.0.0:7411 -dir /tmp/srumma-mh \
#            -out /tmp/multihost_run.json &
#   hostA$ for r in 0 1; do
#            srumma-worker -join tcp:hostA:7411 -rank $r -np 4 -ppn 2 \
#              -dir /tmp/srumma-mh -transport tcp &
#          done
#   hostB$ for r in 2 3; do
#            srumma-worker -join tcp:hostA:7411 -rank $r -np 4 -ppn 2 \
#              -dir /tmp/srumma-mh -transport tcp &
#          done
#
# Run WITHOUT arguments this script demonstrates the same wiring on one
# machine: same coordinator, same external-join workers, same TCP RMA
# path across the domain cut — so it doubles as the CI smoke for the
# multi-host plumbing.
set -eu

NP=${NP:-4}
PPN=${PPN:-2}
N=${N:-384}
PORT=${PORT:-7411}
BIN=${BIN:-$(mktemp -d)}
OUT=${OUT:-$BIN/multihost_run.json}
DIR=${DIR:-$(mktemp -d /tmp/srumma-mh.XXXXXX)}

echo "multihost-trace: building srumma-trace and srumma-worker into $BIN"
go build -o "$BIN/srumma-trace" ./cmd/srumma-trace
go build -o "$BIN/srumma-worker" ./cmd/srumma-worker

echo "multihost-trace: starting coordinator (listen 127.0.0.1:$PORT, dir $DIR)"
"$BIN/srumma-trace" -engine ipc -no-spawn -procs "$NP" -ppn "$PPN" -n "$N" \
  -listen "127.0.0.1:$PORT" -dir "$DIR" -out "$OUT" &
COORD=$!

# Give the listener a moment to bind, then join the workers. Each domain's
# worker set stands in for one host/container.
sleep 1
r=0
while [ "$r" -lt "$NP" ]; do
  "$BIN/srumma-worker" -join "tcp:127.0.0.1:$PORT" -rank "$r" -np "$NP" \
    -ppn "$PPN" -dir "$DIR" -transport tcp &
  r=$((r + 1))
done

if ! wait $COORD; then
  echo "multihost-trace: FAIL (coordinator exited nonzero)" >&2
  exit 1
fi
wait

grep -q '"overlap_ratio"' "$OUT"
grep -q '"external_workers"' "$OUT"
echo "multihost-trace: PASS (cross-host overlap ratio in the run summary, $OUT)"
