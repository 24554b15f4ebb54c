#!/bin/sh
# dist_smoke.sh — end-to-end smoke test of the distributed execution
# subsystem: one lbserver coordinator, two lbworkers, a sweep job and an
# explore fuzz job. Worker A is SIGKILLed mid-sweep so its lease expires
# and the shard is re-leased to worker B; the sweep must still complete.
# Each job's result must be byte-identical to a local (no-worker) run of
# the same spec — the determinism contract the shard protocol is built on.
set -eu

ADDR=${LBSERVER_ADDR:-127.0.0.1:18474}
BASE="http://$ADDR"
LOCAL_ADDR=${LBSERVER_LOCAL_ADDR:-127.0.0.1:18475}
LOCAL_BASE="http://$LOCAL_ADDR"
TMP=$(mktemp -d)
SERVER_PID=
LOCAL_PID=
WORKER_A_PID=
WORKER_B_PID=

cleanup() {
    for pid in "$SERVER_PID" "$LOCAL_PID" "$WORKER_A_PID" "$WORKER_B_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "dist-smoke: building lbserver and lbworker"
go build -o "$TMP/lbserver" ./cmd/lbserver
go build -o "$TMP/lbworker" ./cmd/lbworker

# Short lease TTL so the killed worker's shard is re-leased within the
# test's patience rather than the production default's 15s.
"$TMP/lbserver" -addr "$ADDR" -workers 2 -cache-dir "$TMP/dist-cache" \
    -lease-ttl 2s -dist-shards 8 &
SERVER_PID=$!

wait_healthy() {
    i=0
    until curl -fsS "$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "dist-smoke: server at $1 never became healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
}
wait_healthy "$BASE"

# metric NAME: read one counter/gauge value from /metrics (0 if absent).
metric() {
    curl -fsS "$BASE/metrics" | awk -v name="$1" '$1 == name {print $2; found=1} END {if (!found) print 0}'
}

# wait_metric NAME MIN: poll until the metric reaches MIN.
wait_metric() {
    i=0
    while true; do
        v=$(metric "$1")
        # Values are plain integers for counters; -ge works.
        if [ "${v%.*}" -ge "$2" ]; then
            return 0
        fi
        i=$((i + 1))
        if [ "$i" -ge 300 ]; then
            echo "dist-smoke: $1 never reached $2 (last: $v)" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# wait_done BASE ID: poll the job until it is done; fail if it fails.
wait_done() {
    status=
    i=0
    while [ "$i" -lt 600 ]; do
        view=$(curl -fsS "$1/v1/jobs/$2")
        status=$(printf '%s' "$view" | grep -o '"status":"[a-z]*"' | head -1 | cut -d'"' -f4)
        case "$status" in
        done) return 0 ;;
        failed | canceled)
            echo "dist-smoke: job $2 at $1 ended $status: $view" >&2
            exit 1
            ;;
        esac
        i=$((i + 1))
        sleep 0.2
    done
    echo "dist-smoke: job $2 at $1 never finished (last status: $status)" >&2
    exit 1
}

# submit BASE SPEC: submit a job and print its ID.
submit() {
    resp=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$2" "$1/v1/jobs")
    printf '%s' "$resp" | grep -o '"id":"[0-9a-f]\{64\}"' | head -1 | cut -d'"' -f4
}

# same_bytes ID NAME: the content-addressed cache files of the distributed
# and the local run of one job must be identical.
same_bytes() {
    dist_hash=$(sha256sum "$TMP/dist-cache/$1.json" | cut -d' ' -f1)
    local_hash=$(sha256sum "$TMP/local-cache/$1.json" | cut -d' ' -f1)
    if [ "$dist_hash" != "$local_hash" ]; then
        echo "dist-smoke: distributed result of $1 differs from local run" >&2
        echo "  distributed: $dist_hash" >&2
        echo "  local:       $local_hash" >&2
        exit 1
    fi
    echo "dist-smoke: $2 result byte-identical to local run ($dist_hash)"
}

"$TMP/lbworker" -server "$BASE" -id worker-a -backoff 50ms &
WORKER_A_PID=$!
wait_metric dist_workers_active 1
echo "dist-smoke: worker-a polling"

# A sweep big enough that worker-a is still mid-job when it dies: 3
# constructions x ns 2..256 = 24 coordinates over 8 shards, the largest
# taking seconds.
SPEC='{"kind":"sweep","sweep":{"type":"fetch&increment","maxN":256}}'
id=$(submit "$BASE" "$SPEC")
if [ -z "$id" ]; then
    echo "dist-smoke: no job ID for the sweep job" >&2
    exit 1
fi
echo "dist-smoke: submitted sweep job $id"

wait_metric dist_jobs_distributed_total 1
# Let worker-a lease its way into the job, then crash it without ceremony
# (SIGKILL: no goodbye, the lease just stops heartbeating).
wait_metric dist_shards_leased_total 3
kill -9 "$WORKER_A_PID" 2>/dev/null || true
wait "$WORKER_A_PID" 2>/dev/null || true
WORKER_A_PID=
echo "dist-smoke: worker-a killed mid-run; starting worker-b"
"$TMP/lbworker" -server "$BASE" -id worker-b -backoff 50ms &
WORKER_B_PID=$!

# The orphaned lease must expire and go back in the queue...
wait_metric dist_shards_released_total 1
echo "dist-smoke: orphaned shard re-leased after TTL"

# ...and the job must still finish.
wait_done "$BASE" "$id"
echo "dist-smoke: distributed job done despite the worker crash"

# An explore fuzz job shards over its samples. Budget 3 makes most samples
# fail, so every part carries failures to concatenate in sample order.
FUZZ_SPEC='{"kind":"explore","explore":{"alg":"central","mode":"fuzz","samples":240,"seed":5,"budget":3}}'
fuzz_id=$(submit "$BASE" "$FUZZ_SPEC")
if [ -z "$fuzz_id" ]; then
    echo "dist-smoke: no job ID for the fuzz job" >&2
    exit 1
fi
echo "dist-smoke: submitted fuzz job $fuzz_id"
wait_done "$BASE" "$fuzz_id"
# The fleet, not a local fallback, must have run both jobs.
wait_metric dist_jobs_distributed_total 2
if [ "$(metric dist_jobs_fallback_total)" != 0 ]; then
    echo "dist-smoke: a job fell back to local execution" >&2
    exit 1
fi
echo "dist-smoke: distributed fuzz job done"

# Byte-identity: a second server with no workers runs the same specs
# locally; the content-addressed cache files must be identical.
"$TMP/lbserver" -addr "$LOCAL_ADDR" -workers 2 -cache-dir "$TMP/local-cache" -dist=false &
LOCAL_PID=$!
wait_healthy "$LOCAL_BASE"
for job in "$id:$SPEC" "$fuzz_id:$FUZZ_SPEC"; do
    want=${job%%:*}
    got=$(submit "$LOCAL_BASE" "${job#*:}")
    if [ "$got" != "$want" ]; then
        echo "dist-smoke: local server derived job ID $got, want $want" >&2
        exit 1
    fi
    wait_done "$LOCAL_BASE" "$want"
done
same_bytes "$id" sweep
same_bytes "$fuzz_id" fuzz

completed=$(metric dist_shards_completed_total)
released=$(metric dist_shards_released_total)
echo "dist-smoke: ok — shards completed=$completed released=$released"
