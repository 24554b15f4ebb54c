#!/bin/sh
# campaign_smoke.sh — end-to-end smoke test of the coverage-guided
# campaign subsystem: one lbserver, two lbworkers, one campaign hunting
# the deliberately broken group-update construction (-tags mutation).
# Worker A is SIGKILLed mid-campaign; the campaign must still find the
# linearizability bug, auto-shrink it, and persist a replay file that
# re-executes bit-for-bit. The server is then SIGTERMed and restarted on
# the same cache directory; the campaign must resume from its checkpoint
# with the corpus intact (identical corpus digest).
set -eu

ADDR=${LBSERVER_ADDR:-127.0.0.1:18476}
BASE="http://$ADDR"
TMP=$(mktemp -d)
SERVER_PID=
WORKER_A_PID=
WORKER_B_PID=

cleanup() {
    for pid in "$SERVER_PID" "$WORKER_A_PID" "$WORKER_B_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "campaign-smoke: building lbserver, lbworker, explore (-tags mutation)"
go build -tags mutation -o "$TMP/lbserver" ./cmd/lbserver
go build -tags mutation -o "$TMP/lbworker" ./cmd/lbworker
go build -tags mutation -o "$TMP/explore" ./cmd/explore

start_server() {
    "$TMP/lbserver" -addr "$ADDR" -workers 2 -cache-dir "$TMP/cache" \
        -lease-ttl 2s -dist-shards 8 \
        -campaign-findings "$TMP/findings" &
    SERVER_PID=$!
}
start_server

wait_healthy() {
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "campaign-smoke: server never became healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
}
wait_healthy

# metric NAME: read one counter/gauge value from /metrics (0 if absent).
metric() {
    curl -fsS "$BASE/metrics" | awk -v name="$1" '$1 == name {print $2; found=1} END {if (!found) print 0}'
}

# wait_metric NAME MIN: poll until the metric reaches MIN.
wait_metric() {
    i=0
    while true; do
        v=$(metric "$1")
        if [ "${v%.*}" -ge "$2" ]; then
            return 0
        fi
        i=$((i + 1))
        if [ "$i" -ge 300 ]; then
            echo "campaign-smoke: $1 never reached $2 (last: $v)" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# field NAME JSON: extract a scalar JSON field value (string or number).
field() {
    printf '%s' "$2" | grep -o "\"$1\":\"[^\"]*\"\|\"$1\":[0-9]*" | head -1 | sed "s/\"$1\"://; s/\"//g"
}

"$TMP/lbworker" -server "$BASE" -id worker-a -backoff 50ms &
WORKER_A_PID=$!
wait_metric dist_workers_active 1
"$TMP/lbworker" -server "$BASE" -id worker-b -backoff 50ms &
WORKER_B_PID=$!
echo "campaign-smoke: two workers polling"

# A bounded campaign against the seeded bug: 8 rounds x 64 inputs is far
# more than the mutant survives, and the bound makes the post-restart
# corpus comparison exact (the resumed campaign is already at its bound).
SPEC='{"alg":"group-update-broken","n":2,"batchSize":64,"maxRounds":8}'
resp=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/campaigns")
id=$(field id "$resp")
if [ -z "$id" ]; then
    echo "campaign-smoke: no campaign ID in response: $resp" >&2
    exit 1
fi
echo "campaign-smoke: started campaign $id"

# Resubmitting the same spec must attach (200), never fork a duplicate.
code=$(curl -fsS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/campaigns")
if [ "$code" != 200 ]; then
    echo "campaign-smoke: resubmission answered $code, want 200" >&2
    exit 1
fi

# Let the fleet lease its way into the round fan-out, then SIGKILL
# worker-a: its shards must be re-leased to worker-b after the TTL.
wait_metric dist_shards_leased_total 3
kill -9 "$WORKER_A_PID" 2>/dev/null || true
wait "$WORKER_A_PID" 2>/dev/null || true
WORKER_A_PID=
echo "campaign-smoke: worker-a SIGKILLed mid-campaign"

# The campaign must find, shrink, and keep the seeded bug...
wait_metric campaign_findings_total 1
echo "campaign-smoke: finding kept (shrunk counterexample recorded)"

# ...and run to its round bound despite the crash.
status=
i=0
while [ "$i" -lt 600 ]; do
    view=$(curl -fsS "$BASE/v1/campaigns/$id")
    status=$(field status "$view")
    case "$status" in
    done) break ;;
    failed)
        echo "campaign-smoke: campaign failed: $view" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
    sleep 0.2
done
if [ "$status" != done ]; then
    echo "campaign-smoke: campaign never finished (last status: $status)" >&2
    exit 1
fi

view=$(curl -fsS "$BASE/v1/campaigns/$id")
rounds=$(field rounds "$view")
corpus_digest=$(field corpusDigest "$view")
corpus_size=$(field corpusSize "$view")
finding_kind=$(field kind "$view")
replay_path=$(field path "$view")
echo "campaign-smoke: campaign done: rounds=$rounds corpus=$corpus_size finding=$finding_kind"

[ "$rounds" = 8 ] || { echo "campaign-smoke: rounds=$rounds, want 8" >&2; exit 1; }
[ "${corpus_size:-0}" -ge 1 ] || { echo "campaign-smoke: empty corpus" >&2; exit 1; }
[ "$finding_kind" = non-linearizable ] || {
    echo "campaign-smoke: finding kind $finding_kind, want non-linearizable: $view" >&2
    exit 1
}
if [ -z "$replay_path" ] || [ ! -f "$replay_path" ]; then
    echo "campaign-smoke: no persisted replay file (path: '$replay_path')" >&2
    exit 1
fi

# The shrunk finding must re-execute bit-for-bit from its replay file.
"$TMP/explore" -replay "$replay_path"
echo "campaign-smoke: shrunk finding replays bit-for-bit ($replay_path)"

# Restart: SIGTERM the server, bring a new one up on the same cache dir.
# The checkpoint must resume the campaign with its corpus intact.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
echo "campaign-smoke: server stopped; restarting on the same cache dir"
start_server
wait_healthy

status=
i=0
while [ "$i" -lt 300 ]; do
    view2=$(curl -fsS "$BASE/v1/campaigns/$id" || true)
    status=$(field status "$view2")
    [ "$status" = done ] && break
    i=$((i + 1))
    sleep 0.1
done
if [ "$status" != done ]; then
    echo "campaign-smoke: campaign did not resume after restart (status: $status)" >&2
    exit 1
fi
rounds2=$(field rounds "$view2")
corpus_digest2=$(field corpusDigest "$view2")
[ "$rounds2" = "$rounds" ] || {
    echo "campaign-smoke: resumed rounds=$rounds2, want $rounds" >&2
    exit 1
}
if [ "$corpus_digest2" != "$corpus_digest" ]; then
    echo "campaign-smoke: corpus digest changed across restart" >&2
    echo "  before: $corpus_digest" >&2
    echo "  after:  $corpus_digest2" >&2
    exit 1
fi
echo "campaign-smoke: campaign resumed from checkpoint, corpus intact ($corpus_digest)"

# Stop the campaign through the API for a clean shutdown path.
curl -fsS -X DELETE "$BASE/v1/campaigns/$id" >/dev/null
echo "campaign-smoke: ok"
