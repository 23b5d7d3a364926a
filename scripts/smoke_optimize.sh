#!/bin/sh
# Pareto-search round trip (docs/OPTIMIZE.md): run a small seeded
# fhcampaign -optimize twice at different worker counts and require
# byte-identical artifacts, validate them against the pareto/v1
# contract, then submit the same search to the daemon as a job
# (POST /v1/optimize): the first request must be a new job whose
# pareto.csv equals the local run's, and the repeat a cache hit whose
# bundle pareto.json is byte-identical. Exits non-zero on any
# failure. (-f: $SEARCH is word-split on purpose and carries a literal
# 'gen?seg=16k' that must not glob.)
set -euf

ADDR="${SMOKE_ADDR:-127.0.0.1:18421}"
TMP="$(mktemp -d)"
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM
SERVED_PID=""

echo "== building =="
go build -o "$TMP" ./cmd/fhcampaign ./cmd/fhserved ./cmd/fhreport

SEARCH="-optimize -quick -workloads gen?seg=16k -schemes faulthound?tcam=8 \
    -injections 48 -budget 3 -seed 7 -opt-params tcam -runid smoke"

echo "== local search, -workers 4 =="
"$TMP/fhcampaign" $SEARCH -workers 4 -out "$TMP/opt-w4"

echo "== local search, -workers 1 (must be byte-identical) =="
"$TMP/fhcampaign" $SEARCH -workers 1 -out "$TMP/opt-w1"
for f in pareto.csv pareto.json pareto.md; do
    cmp "$TMP/opt-w4/$f" "$TMP/opt-w1/$f" \
        || { echo "$f differs between -workers 4 and 1"; exit 1; }
done

echo "== front is non-trivial =="
FRONT="$(grep -c ',true,' "$TMP/opt-w4/pareto.csv" || true)"
[ "$FRONT" -ge 1 ] || { echo "empty Pareto front"; cat "$TMP/opt-w4/pareto.csv"; exit 1; }

echo "== contract validation =="
"$TMP/fhreport" validate "$TMP/opt-w4" "$TMP/opt-w4/pareto.csv"

echo "== starting fhserved on $ADDR =="
"$TMP/fhserved" -addr "$ADDR" -data "$TMP/data" -quick -v >"$TMP/served.log" 2>&1 &
SERVED_PID=$!
for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    [ "$i" = 50 ] && { echo "daemon never became healthy"; cat "$TMP/served.log"; exit 1; }
    sleep 0.1
done

REQ='{"benchmarks":["gen?seg=16k"],"schemes":["faulthound?tcam=8"],"budget":3,"seed":7,"params":["tcam"],"injections":48}'

# post writes the POST /v1/optimize response to $1 and prints the HTTP
# status; a search is a job, answered like a campaign submission.
post() {
    curl -s -o "$1" -w '%{http_code}' -d "$REQ" "http://$ADDR/v1/optimize"
}

echo "== POST /v1/optimize (must be a new job) =="
CODE="$(post "$TMP/st1.json")"
[ "$CODE" = 202 ] || { echo "first request: HTTP $CODE, want 202"; cat "$TMP/st1.json"; exit 1; }
grep -q '"cache_hit": *true' "$TMP/st1.json" \
    && { echo "first request was a cache hit"; cat "$TMP/st1.json"; exit 1; }
ID="$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$TMP/st1.json")"
[ -n "$ID" ] || { echo "no job id in the response"; cat "$TMP/st1.json"; exit 1; }

echo "== following job $ID to completion =="
curl -sfN "http://$ADDR/v1/campaigns/$ID/events" | tail -1 | grep -q '"state":"done"' \
    || { echo "search job did not end done"; curl -s "http://$ADDR/v1/campaigns/$ID"; exit 1; }
curl -sf "http://$ADDR/v1/campaigns/$ID/bundle/pareto.json" >"$TMP/opt-daemon.json"
grep -q '"schema_version": "faulthound.pareto/v1"' "$TMP/opt-daemon.json" \
    || { echo "bundle pareto.json is not a pareto report"; head "$TMP/opt-daemon.json"; exit 1; }

echo "== daemon pareto.csv equals the local -workers 4 run's =="
curl -sf "http://$ADDR/v1/campaigns/$ID/bundle/pareto.csv" >"$TMP/opt-daemon.csv"
cmp "$TMP/opt-daemon.csv" "$TMP/opt-w4/pareto.csv" \
    || { echo "daemon and local searches disagree"; diff "$TMP/opt-daemon.csv" "$TMP/opt-w4/pareto.csv"; exit 1; }

echo "== repeat (must be a cache hit) =="
CODE="$(post "$TMP/st2.json")"
[ "$CODE" = 200 ] || { echo "repeat: HTTP $CODE, want 200"; cat "$TMP/st2.json"; exit 1; }
grep -q '"cache_hit": *true' "$TMP/st2.json" \
    || { echo "repeat was not a cache hit"; cat "$TMP/st2.json"; exit 1; }
grep -q "\"id\": *\"$ID\"" "$TMP/st2.json" \
    || { echo "repeat attached to a different job"; cat "$TMP/st2.json"; exit 1; }
curl -sf "http://$ADDR/v1/campaigns/$ID/bundle/pareto.json" >"$TMP/opt-daemon2.json"
cmp "$TMP/opt-daemon.json" "$TMP/opt-daemon2.json" \
    || { echo "cached repeat returned different bytes"; exit 1; }

echo "== fhcampaign -optimize -addr writes the daemon's artifacts =="
"$TMP/fhcampaign" $SEARCH -addr "$ADDR" -out "$TMP/opt-remote"
cmp "$TMP/opt-remote/pareto.csv" "$TMP/opt-w4/pareto.csv" \
    || { echo "fhcampaign -addr pareto.csv differs from the local run's"; exit 1; }
cmp "$TMP/opt-remote/pareto.json" "$TMP/opt-daemon.json" \
    || { echo "fhcampaign -addr pareto.json differs from the daemon's bundle"; exit 1; }

echo "== draining =="
kill -TERM "$SERVED_PID"
for i in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    sleep 0.1
done
SERVED_PID=""

echo "smoke_optimize: ok"
