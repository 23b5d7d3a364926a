#!/bin/sh
# Daemon round trip: build fhserved + fhcampaign, start the daemon on
# a scratch data root, submit a small campaign over HTTP twice (the
# second must be a cache hit), verify the bundle artifacts, drain with
# SIGTERM while a client follows a running job's event stream (the exit
# must be prompt and the job interrupted), and restart to resume it.
# Exits non-zero on any failure.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18419}"
TMP="$(mktemp -d)"
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "== building =="
go build -o "$TMP" ./cmd/fhserved ./cmd/fhcampaign

echo "== starting fhserved on $ADDR =="
"$TMP/fhserved" -addr "$ADDR" -data "$TMP/data" -quick -v >"$TMP/served.log" 2>&1 &
SERVED_PID=$!

for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    [ "$i" = 50 ] && { echo "daemon never became healthy"; cat "$TMP/served.log"; exit 1; }
    sleep 0.1
done

echo "== submitting campaign =="
"$TMP/fhcampaign" -addr "$ADDR" -quick -bench bzip2 -schemes faulthound -injections 10

echo "== resubmitting (must be a cache hit) =="
"$TMP/fhcampaign" -addr "$ADDR" -quick -bench bzip2 -schemes faulthound -injections 10 \
    2>&1 | grep -q "attaching" || { echo "second submission was not a cache hit"; exit 1; }

echo "== verifying bundle over HTTP =="
ID="$(curl -sf "http://$ADDR/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)"
[ -n "$ID" ] || { echo "no job listed"; exit 1; }
for f in manifest.json results.csv summary.json report.md; do
    curl -sf "http://$ADDR/v1/campaigns/$ID/bundle/$f" >/dev/null \
        || { echo "bundle file $f not served"; exit 1; }
done
echo "== scraping /metrics =="
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
# Counters, gauges, and the instrumentation layer's histograms
# (docs/OBSERVABILITY.md) must all render after one round trip.
for series in \
    "fhserved_jobs_done_total 1" \
    "fhserved_cache_hits_total 1" \
    "fhserved_injection_outcomes_total" \
    "fhserved_injection_duration_seconds_bucket" \
    "fhserved_detection_latency_cycles_bucket" \
    "fhserved_job_queue_wait_seconds_bucket" \
    "fhserved_prepared_cache_misses_total" \
    "fhserved_injections_inflight" \
; do
    grep -q "$series" "$TMP/metrics.txt" \
        || { echo "metrics missing series: $series"; cat "$TMP/metrics.txt"; exit 1; }
done

# A SIGTERM must drain promptly even with a client following a
# running job's event stream: the drain interrupts the job, which ends
# the stream, so the HTTP shutdown has no handler left to wait for.
echo "== SIGTERM with an /events watcher attached =="
BIG='{"benchmarks":["bzip2","mcf"],"schemes":["faulthound"],"fault":{"Injections":4000}}'
BIGID="$(curl -sf -d "$BIG" "http://$ADDR/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$BIGID" ] || { echo "large campaign not accepted"; exit 1; }
curl -sN "http://$ADDR/v1/campaigns/$BIGID/events" >"$TMP/events.jsonl" 2>/dev/null &
WATCH_PID=$!
for i in $(seq 1 300); do
    DONE="$(curl -sf "http://$ADDR/v1/campaigns/$BIGID" | sed -n 's/.*"done": *\([0-9]*\).*/\1/p')"
    [ "${DONE:-0}" -ge 200 ] && break
    [ "$i" = 300 ] && { echo "large campaign made no progress"; cat "$TMP/served.log"; exit 1; }
    sleep 0.1
done
kill -TERM "$SERVED_PID"
for i in $(seq 1 50); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    [ "$i" = 50 ] && { echo "daemon with a watcher attached did not exit within 5 s"; exit 1; }
    sleep 0.1
done
wait "$WATCH_PID" 2>/dev/null || true
grep -q '"state": *"interrupted"' "$TMP/data/$BIGID/status.json" \
    || { echo "drained job is not interrupted:"; cat "$TMP/data/$BIGID/status.json"; exit 1; }
tail -1 "$TMP/events.jsonl" | grep -q '"state":"interrupted"' \
    || { echo "watcher's stream did not end at the interrupted state:"; tail -3 "$TMP/events.jsonl"; exit 1; }

echo "== restart resumes the interrupted job =="
"$TMP/fhserved" -addr "$ADDR" -data "$TMP/data" -quick -v >"$TMP/served2.log" 2>&1 &
SERVED_PID=$!
for i in $(seq 1 600); do
    STATUS="$(curl -sf "http://$ADDR/v1/campaigns/$BIGID" || true)"
    echo "$STATUS" | grep -q '"state": *"done"' && break
    [ "$i" = 600 ] && { echo "resumed job did not finish:"; echo "$STATUS"; cat "$TMP/served2.log"; exit 1; }
    sleep 0.1
done
echo "$STATUS" | grep -q '"resumed": *[1-9]' \
    || { echo "restarted job replayed no journal records:"; echo "$STATUS"; exit 1; }

echo "== draining =="
kill -TERM "$SERVED_PID"
for i in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    [ "$i" = 100 ] && { echo "daemon did not drain"; exit 1; }
    sleep 0.1
done

echo "smoke-server: OK"
