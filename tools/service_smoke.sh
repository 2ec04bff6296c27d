#!/bin/sh
# End-to-end smoke test for defrag-serve + defrag-client + defrag-top (the
# service_smoke ctest entry; runs in every CI job's ctest pass, including
# TSan).
#
#   service_smoke.sh <defrag-serve> <defrag-client> <scratch-dir> [defrag-top]
#
# Exercises, in order: concurrent multi-tenant backup/restore round trips
# with bit-identical verification (2 tenants x 4 sessions = 8 concurrent
# sessions), a multi-frame backup restored bit-identically to a file, live
# introspection (defrag-client stats/health + one defrag-top snapshot)
# matching the observed load, admission-control rejection of over-quota
# sessions, the metrics export carrying per-tenant
# service scopes and per-request latency histograms, structured JSON-lines
# logging, the drain-time --metrics-json/--trace-out exports, graceful
# shutdown via the SHUTDOWN request and via SIGTERM, and drain-under-fault:
# a DEFRAG_FAILPOINTS-armed store-seal fault fails one backup with a typed
# error while the daemon still drains to exit 0 with valid exports.
set -eu

SERVE=$1
CLIENT=$2
SCRATCH=$3
TOP=${4:-}

# sockaddr_un paths are capped at ~107 bytes; the build dir can exceed
# that, so sockets live in /tmp.
SOCK="/tmp/defrag-smoke-$$.sock"
LOG="$SCRATCH/service_smoke_log.jsonl"

cleanup() {
    [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null
    rm -f "$SOCK"
    return 0
}
trap cleanup EXIT INT TERM

wait_for_socket() {
    i=0
    while [ ! -S "$SOCK" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "service_smoke: server never bound $SOCK" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "== start defrag-serve (JSON logs, drain-time exports)"
DRAIN_METRICS="$SCRATCH/service_smoke_drain_metrics.json"
DRAIN_TRACE="$SCRATCH/service_smoke_trace.json"
"$SERVE" run --socket "$SOCK" --max-sessions 8 --per-tenant 4 \
    --log-level info --log-json --slow-ms 0 \
    --metrics-json "$DRAIN_METRICS" --trace-out "$DRAIN_TRACE" \
    2> "$LOG" &
SERVE_PID=$!
wait_for_socket

echo "== concurrent multi-tenant backup/restore (2 tenants x 4 sessions)"
"$CLIENT" smoke --socket "$SOCK" --tenants 2 --sessions 4 \
    --generations 2 --files 8

echo "== multi-frame backup restores bit-identically through --out"
# 10 MiB spans three 4 MiB BACKUP_DATA and RESTORE_DATA frames: the session
# ingests the stream frame by frame and streams the restore back, and the
# client writes each frame to the file as it arrives.
BIG="$SCRATCH/service_smoke_big.bin"
BIG_OUT="$SCRATCH/service_smoke_big_restored.bin"
python3 -c "import random, sys
sys.stdout.buffer.write(random.Random(7).randbytes(10 << 20))" > "$BIG"
"$CLIENT" backup --socket "$SOCK" --tenant big --in "$BIG"
"$CLIENT" restore --socket "$SOCK" --tenant big --id 1 --out "$BIG_OUT"
cmp "$BIG" "$BIG_OUT"
rm -f "$BIG" "$BIG_OUT"

echo "== live stats/health reflect the load just served"
STATS="$SCRATCH/service_smoke_stats.txt"
"$CLIENT" stats --socket "$SOCK" | tee "$STATS"
grep -q 'accepted' "$STATS"
grep -q 'tenant-0' "$STATS"
grep -q 'tenant-1' "$STATS"
"$CLIENT" health --socket "$SOCK" | grep -q 'SERVING'

if [ -n "$TOP" ]; then
    echo "== defrag-top snapshot (--iterations 1 --no-clear)"
    TOPOUT="$SCRATCH/service_smoke_top.txt"
    "$TOP" --socket "$SOCK" --iterations 1 --no-clear | tee "$TOPOUT"
    grep -q 'defrag-serve' "$TOPOUT"
    grep -q 'tenant-0' "$TOPOUT"
fi

echo "== admission control: over-quota sessions are rejected cleanly"
"$CLIENT" probe-reject --socket "$SOCK" --sessions 6 --tenant probe

echo "== metrics export carries the service scopes + request histograms"
METRICS="$SCRATCH/service_smoke_metrics.json"
"$CLIENT" metrics --socket "$SOCK" --out "$METRICS"
grep -q 'defrag.metrics.v1' "$METRICS"
grep -q 'service.sessions_accepted' "$METRICS"
grep -q 'service.tenant.tenant_0.' "$METRICS"
grep -q 'service.tenant.tenant_1.' "$METRICS"
grep -q 'service.tenant.probe.rejected' "$METRICS"
grep -q 'service.request.backup_us' "$METRICS"
grep -q 'service.request.hello_us' "$METRICS"
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$METRICS"

echo "== graceful shutdown via SHUTDOWN request"
"$CLIENT" shutdown --socket "$SOCK"
wait "$SERVE_PID"
SERVE_PID=""

echo "== structured log is valid JSON-lines and carries request ids"
# Sanitizer or libc diagnostics may interleave on stderr; validate only
# the logger's own lines (they start with '{').
python3 - "$LOG" <<'EOF'
import json, sys
events, rid_lines = set(), 0
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        assert "ts" in rec and "level" in rec and "event" in rec, rec
        events.add(rec["event"])
        if "rid" in rec:
            rid_lines += 1
assert "serve.listening" in events, events
assert "session.start" in events, events
assert "session.backup" in events, events
assert rid_lines > 0, "no log line carried a request id"
EOF

echo "== drain-time exports were written and parse"
grep -q 'defrag.metrics.v1' "$DRAIN_METRICS"
grep -q 'traceEvents' "$DRAIN_TRACE"
python3 -c "import json, sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
    "$DRAIN_METRICS" "$DRAIN_TRACE"

echo "== graceful shutdown via SIGTERM (mid-session)"
SOCK="/tmp/defrag-smoke-$$-b.sock"
"$SERVE" run --socket "$SOCK" --max-sessions 4 --per-tenant 4 &
SERVE_PID=$!
wait_for_socket
# A session is left open (idle, blocked in read) while the signal lands;
# the drain must unblock and join it, then exit 0.
"$CLIENT" backup --socket "$SOCK" --tenant sigterm-tenant \
    --generations 1 --files 8 &
CLIENT_PID=$!
sleep 0.3
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
wait "$CLIENT_PID" || true  # client may see EOF if it lost the race
rm -f "$SOCK"

echo "== drain under fault: injected store-seal failure, daemon still exits 0"
SOCK="/tmp/defrag-smoke-$$-c.sock"
FAULT_METRICS="$SCRATCH/service_smoke_fault_metrics.json"
FAULT_TRACE="$SCRATCH/service_smoke_fault_trace.json"
DEFRAG_FAILPOINTS="store.stream_seal:throw" \
    "$SERVE" run --socket "$SOCK" --max-sessions 4 --per-tenant 4 \
    --metrics-json "$FAULT_METRICS" --trace-out "$FAULT_TRACE" &
SERVE_PID=$!
wait_for_socket
# The one-shot env-armed failpoint fires on this backup's stream seal: the
# session converts it to a typed ERROR, so the client must exit non-zero —
# never hang, never take the daemon down.
if "$CLIENT" backup --socket "$SOCK" --tenant fault-tenant \
    --generations 1 --files 4; then
    echo "service_smoke: injected backup unexpectedly succeeded" >&2
    exit 1
fi
# The daemon survived the fault (the arming is spent): a second backup
# rides through a SIGTERM drain and the exports are still written.
"$CLIENT" backup --socket "$SOCK" --tenant drain-tenant \
    --generations 1 --files 8 &
CLIENT_PID=$!
sleep 0.3
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"  # set -e: SIGTERM drain must still exit 0
SERVE_PID=""
wait "$CLIENT_PID" || true
rm -f "$SOCK"
python3 - "$FAULT_METRICS" "$FAULT_TRACE" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
json.load(open(sys.argv[2]))  # the trace export parses too

def find(obj, key):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == key:
                return v
            r = find(v, key)
            if r is not None:
                return r
    elif isinstance(obj, list):
        for v in obj:
            r = find(v, key)
            if r is not None:
                return r
    return None

value = find(metrics, "service.session_internal_errors")
if isinstance(value, dict):
    value = value.get("value", value.get("count"))
assert value is not None and int(value) >= 1, \
    f"session_internal_errors not recorded: {value!r}"
EOF

echo "service_smoke: OK"
