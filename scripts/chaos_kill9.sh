#!/usr/bin/env bash
# kill-9 restart-recover check for the durable admission service.
#
# For each fsync policy (always, interval:5, never): admits streams over
# TCP (idempotent request ids included), SIGKILLs the daemon mid-flight,
# restarts it over the same WAL directory, and requires:
#   1. the restart log to announce a recovery (not a fresh seed);
#   2. every pre-crash QUERY answer to be byte-identical after restart,
#      so no acknowledged admission was lost, whatever the policy;
#   3. a retried pre-crash ADMIT request id to replay its original
#      outcome instead of double-admitting.
# Prints the "bit-identical" marker CI greps for on success.
set -euo pipefail

RTWC=${RTWC:-target/debug/rtwc}
SPEC=${SPEC:-crates/cli/tests/fixtures/clean.streams}
DIR=$(mktemp -d)
SERVER=""
cleanup() {
  [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

# start_server LOG WAL_DIR POLICY
start_server() {
  local log=$1
  # The log exists before the server does, so the first grep finds it.
  : > "$log"
  "$RTWC" serve "$SPEC" --addr 127.0.0.1:0 \
    --wal-dir "$2" --fsync "$3" > "$log" &
  SERVER=$!
  for _ in $(seq 100); do
    grep -q "listening on" "$log" && break
    sleep 0.1
  done
  ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$log")
  test -n "$ADDR"
}

# drill POLICY
drill() {
  local policy=$1
  local run="$DIR/${policy//:/-}"
  mkdir -p "$run"
  start_server "$run/serve1.log" "$run/wal" "$policy"

  # Two admits with idempotency ids, plus an immediate duplicate: the
  # retry must return the original acknowledgement byte for byte.
  "$RTWC" client "$ADDR" --req-id 101 ADMIT 0,0 5,0 2 50 4 > "$run/admit1.json"
  "$RTWC" client "$ADDR" --req-id 102 ADMIT 0,2 6,2 3 60 4 > "$run/admit2.json"
  "$RTWC" client "$ADDR" --req-id 101 ADMIT 0,0 5,0 2 50 4 > "$run/retry-live.json"
  cmp "$run/admit1.json" "$run/retry-live.json"

  # Record every admitted stream's served answer (5 seeded + 2 admitted).
  for h in 0 1 2 3 4 5 6; do
    "$RTWC" client "$ADDR" QUERY "$h" >> "$run/pre-crash.json"
  done

  kill -9 "$SERVER"
  wait "$SERVER" 2>/dev/null || true
  SERVER=""

  start_server "$run/serve2.log" "$run/wal" "$policy"
  grep -q "recovered" "$run/serve2.log" || {
    echo "$policy: restart did not recover (re-seeded instead?)" >&2
    cat "$run/serve2.log" >&2
    exit 1
  }

  for h in 0 1 2 3 4 5 6; do
    "$RTWC" client "$ADDR" QUERY "$h" >> "$run/post-crash.json"
  done
  cmp "$run/pre-crash.json" "$run/post-crash.json"

  # The dedup window survived the crash: the same request id still
  # replays the original outcome on the recovered service.
  "$RTWC" client "$ADDR" --req-id 101 ADMIT 0,0 5,0 2 50 4 > "$run/retry-recovered.json"
  cmp "$run/admit1.json" "$run/retry-recovered.json"

  "$RTWC" client "$ADDR" SHUTDOWN > /dev/null
  wait "$SERVER" 2>/dev/null || true
  SERVER=""
  echo "$policy: 7 stream(s) answered identically across SIGKILL restart"
}

for policy in always interval:5 never; do
  drill "$policy"
done

echo "kill-9 recovery bit-identical: 7 stream(s) answered identically across SIGKILL restart under always, interval:5 and never"
