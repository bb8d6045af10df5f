#!/bin/sh
# End-to-end smoke of codserve's serving contract: build, boot on a random
# port, wait for readiness, exercise the query endpoints, then SIGTERM and
# assert a clean drain. Run via `make serve-smoke`; CI runs it on every
# push. Needs only POSIX sh + curl.
set -eu

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    if [ -f "$workdir/server.log" ]; then
        echo "--- server log ---" >&2
        cat "$workdir/server.log" >&2
    fi
    exit 1
}

echo "serve-smoke: building codserve"
go build -o "$workdir/codserve" ./cmd/codserve

# A bad adaptive setting is refused at startup, before a graph is built or
# an index store is polled: the process must exit non-zero within 5 s.
"$workdir/codserve" -dataset tiny -addr 127.0.0.1:0 -adaptive-delta 2 >"$workdir/bad.log" 2>&1 &
bad_pid=$!
for _ in $(seq 1 50); do
    kill -0 "$bad_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$bad_pid" 2>/dev/null; then
    kill -9 "$bad_pid" 2>/dev/null || true
    fail "codserve kept running with -adaptive-delta 2"
fi
wait "$bad_pid" && fail "codserve exited 0 with -adaptive-delta 2"
grep -q 'adaptive-delta' "$workdir/bad.log" || fail "-adaptive-delta 2 refusal names no flag: $(cat "$workdir/bad.log")"

# Port :0 lets the kernel pick; -addr-file publishes the bound address.
# -query-log turns on the durable wide-event log analyzed with codlog below.
"$workdir/codserve" -dataset tiny -theta 4 -addr 127.0.0.1:0 \
    -addr-file "$workdir/addr" -query-timeout 5s -shutdown-grace 5s \
    -query-log "$workdir/qlog" \
    >"$workdir/server.log" 2>&1 &
server_pid=$!

# The process is live before it is ready: wait for the addr file, then for
# /readyz to flip from 503 to 200 while /healthz stays 200 throughout.
for _ in $(seq 1 50); do
    [ -s "$workdir/addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
[ -s "$workdir/addr" ] || fail "addr file never appeared"
base="http://$(cat "$workdir/addr")"
echo "serve-smoke: server at $base"

code=$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz") || fail "healthz unreachable"
[ "$code" = 200 ] || fail "healthz returned $code before ready"

# /readyz is a JSON contract: {"state":"warming"} at 503 during warmup,
# then {"state":"serving",...} at 200.
ready=""
for _ in $(seq 1 100); do
    code=$(curl -s -o "$workdir/readyz.json" -w '%{http_code}' "$base/readyz" || echo 000)
    if [ "$code" = 200 ]; then ready=yes; break; fi
    [ "$code" = 503 ] || [ "$code" = 000 ] || fail "readyz returned $code during warmup"
    if [ "$code" = 503 ]; then
        grep -q '"state":"warming"' "$workdir/readyz.json" \
            || fail "503 readyz body is not state=warming: $(cat "$workdir/readyz.json")"
    fi
    sleep 0.1
done
[ -n "$ready" ] || fail "server never became ready"
grep -q '"state":"serving"' "$workdir/readyz.json" || fail "ready readyz missing state=serving"
grep -q '"stale_for_ms":0' "$workdir/readyz.json" || fail "ready readyz missing stale_for_ms"
echo "serve-smoke: ready"

# Query endpoints: success, JSON error for bad input, batch. The first
# discover carries a W3C traceparent so the trace-propagation assertions
# below can look for its exact trace ID.
trace_id="4bf92f3577b34da6a3ce929d0e0e4736"
curl -sf -H "traceparent: 00-$trace_id-00f067aa0ba902b7-01" "$base/discover?q=0" \
    | grep -q '"query":0' || fail "discover q=0"
code=$(curl -s -o "$workdir/err.json" -w '%{http_code}' "$base/discover?q=abc")
[ "$code" = 400 ] || fail "malformed q returned $code"
grep -q '"error"' "$workdir/err.json" || fail "400 body is not a JSON error"
curl -sf -X POST -d '{"queries":[{"q":0,"attr":0},{"q":1,"attr":0}]}' "$base/batch" \
    | grep -q '"query":1' || fail "batch"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/nope")
[ "$code" = 404 ] || fail "unknown route returned $code"
# Expression mode: the normalized expression must flow into the wide event
# and the flight recorder. CODU keeps this query out of the traced query's
# (CODL, attr:0, ok) aggregation group: a later query landing in the same
# latency bucket would replace the traced query as that bucket's exemplar
# and fail the exemplar check below.
curl -sf "$base/discover?q=node%3D0%20and%20variant%3Dcodu" \
    | grep -q '"expr"' || fail "expression discover"
echo "serve-smoke: endpoints ok"

# Flight recorder: /debug/queries must retain the traced discover with the
# propagated trace ID and at least one plan-step span, and the per-query
# slog line must carry the same trace_id.
curl -sf "$base/debug/queries" >"$workdir/queries.json" || fail "/debug/queries unreachable"
grep -q "\"trace_id\": \"$trace_id\"" "$workdir/queries.json" \
    || fail "propagated traceparent id $trace_id not in /debug/queries"
grep -q '"kind"' "$workdir/queries.json" || fail "no plan-step spans in /debug/queries"
grep -q '"outcome"' "$workdir/queries.json" || fail "step spans carry no outcomes"
curl -sf "$base/debug/queries?format=text" >"$workdir/queries.txt" \
    || fail "/debug/queries?format=text unreachable"
grep -q "trace=$trace_id" "$workdir/queries.txt" \
    || fail "text rendering missing trace=$trace_id"
grep -q "epoch=" "$workdir/queries.txt" || fail "text rendering missing epoch="
grep -q 'expr="' "$workdir/queries.txt" \
    || fail "text rendering missing the expression-mode expr="
grep -q "trace_id=$trace_id" "$workdir/server.log" \
    || fail "server log line missing trace_id=$trace_id"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/debug/queries")
[ "$code" = 405 ] || fail "POST /debug/queries returned $code, want 405"
echo "serve-smoke: flight recorder ok"

# Query-event pipeline, live side: the streaming aggregator serves
# /debug/querystats, and /metrics renders the event histogram with an
# exemplar trace ID on a bucket.
curl -sf "$base/debug/querystats" >"$workdir/querystats.json" \
    || fail "/debug/querystats unreachable"
grep -q '"groups"' "$workdir/querystats.json" || fail "querystats missing groups"
grep -q '"p99_ms"' "$workdir/querystats.json" || fail "querystats missing percentiles"
curl -sf "$base/metrics" >"$workdir/metrics1.txt" || fail "metrics unreachable"
grep -q '^# TYPE cod_query_event_seconds histogram' "$workdir/metrics1.txt" \
    || fail "metrics missing the query-event histogram"
grep -q '# {trace_id="' "$workdir/metrics1.txt" \
    || fail "metrics missing exemplar trace IDs"
grep -q "trace_id=\"$trace_id\"" "$workdir/metrics1.txt" \
    || fail "traced query $trace_id not an exemplar on any bucket"
grep -q '^cod_query_events_written ' "$workdir/metrics1.txt" \
    || fail "metrics missing the event-sink gauges"
echo "serve-smoke: query-event pipeline ok"

# Graceful drain: start a slow request (codr reclusters per query), give it
# a moment to be admitted, then SIGTERM. The server must finish the
# in-flight response and exit 0.
curl -s -o "$workdir/inflight.json" "$base/discover?q=0%20and%20node%3D0%20and%20variant%3Dcodr" &
curl_pid=$!
sleep 0.2
kill -TERM "$server_pid"
wait "$curl_pid" || fail "in-flight request dropped during drain"
grep -q '"query":0' "$workdir/inflight.json" || fail "in-flight response truncated"
if wait "$server_pid"; then
    server_pid=""
else
    fail "server exited nonzero on SIGTERM"
fi
grep -q "drained cleanly" "$workdir/server.log" || fail "drain not logged"
echo "serve-smoke: phase 1 (local build) ok"

# --- Query-event log, offline side ----------------------------------------
# The drained server fsynced its event log; codlog must find the traced
# query, summarize the log, and replay the logged query byte-identically
# against an index rebuilt from the same flags.
echo "serve-smoke: building codlog"
go build -o "$workdir/codlog" ./cmd/codlog

"$workdir/codlog" -log "$workdir/qlog" grep "$trace_id" >"$workdir/grep.txt" \
    || fail "codlog grep $trace_id"
grep -q "trace=$trace_id" "$workdir/grep.txt" || fail "codlog grep output missing the trace"
grep -q "step " "$workdir/grep.txt" || fail "codlog grep output missing plan steps"

"$workdir/codlog" -log "$workdir/qlog" top >"$workdir/top.txt" || fail "codlog top"
grep -q "PRED" "$workdir/top.txt" || fail "codlog top missing header"
grep -q "event(s) in" "$workdir/top.txt" || fail "codlog top missing scan summary"

"$workdir/codlog" -log "$workdir/qlog" percentiles >"$workdir/pct.txt" \
    || fail "codlog percentiles"
grep -q "P99" "$workdir/pct.txt" || fail "codlog percentiles missing header"
grep -q "CODL" "$workdir/pct.txt" || fail "codlog percentiles missing the CODL group"

# Replay flags mirror the phase-1 server build (tiny, theta 4, defaults
# elsewhere); the logged per-query seed makes the re-run deterministic.
"$workdir/codlog" -log "$workdir/qlog" replay -dataset tiny -theta 4 "$trace_id" \
    >"$workdir/replay.txt" || fail "codlog replay diverged: $(cat "$workdir/replay.txt")"
grep -q "result: byte-identical" "$workdir/replay.txt" \
    || fail "replay result not byte-identical: $(cat "$workdir/replay.txt")"
grep -q "replay OK" "$workdir/replay.txt" || fail "replay did not report OK"
echo "serve-smoke: codlog ok"

# --- Phase 2: store-fed serving -------------------------------------------
# codpublish publishes a verified snapshot into a blob store; codserve
# -index-store fetches it, serves it, and hot-swaps when a newer epoch
# lands — all observable through /readyz, X-Cod-Epoch, and /metrics.
echo "serve-smoke: building codpublish"
go build -o "$workdir/codpublish" ./cmd/codpublish
store="$workdir/store"

"$workdir/codpublish" -store "$store" -dataset tiny -theta 4 -seed 1 \
    >>"$workdir/server.log" 2>&1 || fail "codpublish epoch 1"

"$workdir/codserve" -dataset tiny -addr 127.0.0.1:0 -addr-file "$workdir/addr2" \
    -index-store "$store" -index-watch 200ms -query-timeout 5s -shutdown-grace 5s \
    >"$workdir/server.log" 2>&1 &
server_pid=$!

for _ in $(seq 1 50); do
    [ -s "$workdir/addr2" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "store-fed server exited during startup"
    sleep 0.1
done
[ -s "$workdir/addr2" ] || fail "store-fed addr file never appeared"
base="http://$(cat "$workdir/addr2")"
echo "serve-smoke: store-fed server at $base"

ready=""
for _ in $(seq 1 100); do
    code=$(curl -s -o "$workdir/readyz.json" -w '%{http_code}' "$base/readyz" || echo 000)
    if [ "$code" = 200 ]; then ready=yes; break; fi
    sleep 0.1
done
[ -n "$ready" ] || fail "store-fed server never became ready"
grep -q '"state":"serving"' "$workdir/readyz.json" || fail "store-fed readyz missing state=serving"
grep -q '"epoch":1' "$workdir/readyz.json" || fail "store-fed readyz not on epoch 1"
grep -q '"params_hash":"' "$workdir/readyz.json" || fail "store-fed readyz missing params_hash"

# Responses name the epoch that answered them.
curl -sf -D "$workdir/headers.txt" -o /dev/null "$base/discover?q=0" || fail "store-fed discover"
grep -iq '^x-cod-epoch: 1' "$workdir/headers.txt" \
    || fail "X-Cod-Epoch not 1: $(grep -i x-cod-epoch "$workdir/headers.txt" || echo missing)"

# Publish a newer epoch; the watcher must converge and swap without a restart.
"$workdir/codpublish" -store "$store" -dataset tiny -theta 4 -seed 2 \
    >>"$workdir/server.log" 2>&1 || fail "codpublish epoch 2"
swapped=""
for _ in $(seq 1 100); do
    if curl -s "$base/readyz" | grep -q '"epoch":2'; then swapped=yes; break; fi
    sleep 0.1
done
[ -n "$swapped" ] || fail "server never swapped to epoch 2"
curl -sf -D "$workdir/headers.txt" -o /dev/null "$base/discover?q=0" || fail "post-swap discover"
grep -iq '^x-cod-epoch: 2' "$workdir/headers.txt" || fail "queries not served from epoch 2 after swap"
curl -sf "$base/metrics" >"$workdir/metrics.txt" || fail "metrics unreachable"
grep -q '^cod_index_swap_ok_total 2' "$workdir/metrics.txt" || fail "swap counter not at 2"
grep -q '^cod_index_epoch 2' "$workdir/metrics.txt" || fail "epoch gauge not at 2"
echo "serve-smoke: hot swap ok"

kill -TERM "$server_pid"
if wait "$server_pid"; then
    server_pid=""
else
    fail "store-fed server exited nonzero on SIGTERM"
fi
echo "serve-smoke: PASS"
