#!/usr/bin/env bash
# crash_e2e.sh — the kill -9 crash matrix: proves, across REAL process
# boundaries, that nvmemcached on a file-backed NVRAM image (-pmem-file)
# recovers every acknowledged write after an abrupt SIGKILL — no SIGTERM
# image save, no shutdown handshake.
#
# Each round: start the server on the same pmem file, drive sets + counter
# incrs + a gets/cas chain over TCP while recording the acknowledged
# frontier (cmd/crashcheck), kill -9 the server mid-load, restart it, and
# verify the frontier of EVERY round so far — earlier rounds must keep
# surviving later crashes. The cas chain additionally pins the CAS unique to
# its value's generation (cas == gen+1), so a recovery that resets or
# detaches CAS metadata from item values fails even when the values
# themselves survive. A final clean-SIGTERM cycle checks the graceful path
# too.
#
# Environment:
#   CRASH_ROUNDS  kill -9 rounds (default 3)
#   LOAD_SECONDS  load time before each kill (default 1)
#   SHARDS        shard count of the server's pool (default 1: -pmem-file is
#                 the image file; >1 makes it the pool directory, loads over
#                 multiple concurrent connections so every shard takes
#                 writes, and checks that recovery ran the shards in
#                 parallel)
#
# Portable across ubuntu/macos runners: no timeout(1), no /dev/tcp, no nc.
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS="${CRASH_ROUNDS:-3}"
LOAD_SECONDS="${LOAD_SECONDS:-1}"
SHARDS="${SHARDS:-1}"
WORKERS=1
[ "$SHARDS" -gt 1 ] && WORKERS=4

WORK=$(mktemp -d)
SRV_PID=""
GROW_PID=""
STRICT_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
  [ -n "${GROW_PID:-}" ] && kill -9 "$GROW_PID" 2>/dev/null || true
  [ -n "${STRICT_PID:-}" ] && kill -9 "$STRICT_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building =="
go build -o "$WORK/nvmemcached" ./cmd/nvmemcached
go build -o "$WORK/crashcheck" ./cmd/crashcheck

PMEM="$WORK/cache.pmem"
[ "$SHARDS" -gt 1 ] && PMEM="$WORK/pool" # the server makes it a directory
LOG="$WORK/server.log"

start_server() {
  : > "$LOG"
  "$WORK/nvmemcached" -listen 127.0.0.1:0 -mem $((64 << 20)) -buckets 4096 \
    -pmem-file "$PMEM" -shards "$SHARDS" -latency 0 -sweep 0 >> "$LOG" 2>&1 &
  SRV_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(awk '/listening on/ {a=$NF} END {print a}' "$LOG")
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
      echo "server died during startup:" >&2
      cat "$LOG" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "server never reported its listen address:" >&2
    cat "$LOG" >&2
    exit 1
  fi
}

verify_all_rounds() {
  upto=$1
  for p in $(seq 1 "$upto"); do
    "$WORK/crashcheck" -addr "$ADDR" -state "$WORK/state.$p" -prefix "r$p" -workers "$WORKERS" verify
  done
  # The concurrent-load round's frontier, once it exists, must keep
  # surviving every later crash too.
  if ls "$WORK/state.conc"* >/dev/null 2>&1; then
    "$WORK/crashcheck" -addr "$ADDR" -state "$WORK/state.conc" -prefix conc -workers 4 verify
  fi
}

# acked_total sums the acknowledged frontier over a round's state file(s) —
# one file with a single load worker, one per worker otherwise.
acked_total() {
  cat "$WORK/state.$1"* 2>/dev/null | awk -F= '/^acked=/ {s += $2} END {print s + 0}'
}

# check_parallel_recovery reads the server's "shard recovery:" line and
# asserts wall clock ~= slowest shard, not the sum: total <= 2*max + 250ms.
# The 250ms slack keeps the check honest on single-core runners, where
# per-shard recoveries are single-digit milliseconds and goroutines
# interleave on one CPU; on multicore the 2*max bound is the signal that
# shards really recovered concurrently rather than one after another.
check_parallel_recovery() {
  [ "$SHARDS" -gt 1 ] || return 0
  line=$(grep "shard recovery:" "$LOG" | tail -1)
  if [ -z "$line" ]; then
    echo "sharded restart logged no 'shard recovery:' line:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  echo "   $line"
  echo "$line" | awk '{
    for (i = 1; i <= NF; i++) {
      if ($i ~ /^total_ms=/) { sub(/^total_ms=/, "", $i); total = $i + 0 }
      if ($i ~ /^max_ms=/)   { sub(/^max_ms=/, "", $i);   max = $i + 0 }
    }
    if (total > 2 * max + 250) {
      printf "shard recovery looks serialized: total=%dms > 2*max(%dms)+250ms\n", total, max > "/dev/stderr"
      exit 1
    }
  }'
}

echo "== round 0: fresh server =="
start_server
echo "   listening on $ADDR (pid $SRV_PID)"

for r in $(seq 1 "$ROUNDS"); do
  echo "== round $r: load, kill -9, recover =="
  "$WORK/crashcheck" -addr "$ADDR" -state "$WORK/state.$r" -prefix "r$r" -workers "$WORKERS" load &
  LOAD_PID=$!
  sleep "$LOAD_SECONDS"
  kill -9 "$SRV_PID"
  SRV_PID=""
  wait "$LOAD_PID"

  ACKED=$(acked_total "$r")
  if [ "${ACKED:-0}" -lt 100 ]; then
    echo "round $r: only $ACKED acknowledged sets before the kill — not a meaningful crash test" >&2
    exit 1
  fi
  echo "   killed server with $ACKED acknowledged sets in flight history"

  start_server
  if ! grep -q "recovered" "$LOG"; then
    echo "restart did not run recovery:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  echo "   $(awk '/recovered/ {sub(/^.*recovered/, "recovered"); print; exit}' "$LOG")"
  check_parallel_recovery
  verify_all_rounds "$r"
done

echo "== concurrent-load round: kill -9 under 4-connection load =="
# Multi-connection load against THIS image (at one shard too): four
# concurrent connections race sets, counters and cas chains on the same
# runtime(s) while the kill lands — crash consistency must hold under real
# write concurrency, not just a single serialized stream.
"$WORK/crashcheck" -addr "$ADDR" -state "$WORK/state.conc" -prefix conc -workers 4 load &
LOAD_PID=$!
sleep "$LOAD_SECONDS"
kill -9 "$SRV_PID"
SRV_PID=""
wait "$LOAD_PID"
ACKED=$(cat "$WORK/state.conc"* 2>/dev/null | awk -F= '/^acked=/ {s += $2} END {print s + 0}')
if [ "${ACKED:-0}" -lt 100 ]; then
  echo "concurrent round: only $ACKED acknowledged sets before the kill" >&2
  exit 1
fi
echo "   killed server with $ACKED acknowledged sets across 4 connections"
start_server
if ! grep -q "recovered" "$LOG"; then
  echo "restart did not run recovery:" >&2
  cat "$LOG" >&2
  exit 1
fi
verify_all_rounds "$ROUNDS"

echo "== kill-during-grow round =="
# A second, small server with an online-growth reserve: load until the pool
# doubles at least once, kill -9 right at the grow, and require the restart
# to recover to a capacity EXACTLY on the doubling schedule — a torn grow
# lands on the old or the new size, never a half-carved pool — with every
# acknowledged write intact.
GPMEM="$WORK/grow.pmem"
GLOG="$WORK/grow.log"
GROW_INIT=$((4 << 20))
GROW_MAX=$((64 << 20))
GROW_PID=""
start_grow_server() {
  : > "$GLOG"
  "$WORK/nvmemcached" -listen 127.0.0.1:0 -mem "$GROW_INIT" -buckets 4096 \
    -pmem-file "$GPMEM" -max-grow "$GROW_MAX" -latency 0 -sweep 0 >> "$GLOG" 2>&1 &
  GROW_PID=$!
  GADDR=""
  for _ in $(seq 1 100); do
    GADDR=$(awk '/listening on/ {a=$NF} END {print a}' "$GLOG")
    [ -n "$GADDR" ] && break
    if ! kill -0 "$GROW_PID" 2>/dev/null; then
      echo "grow server died during startup:" >&2
      cat "$GLOG" >&2
      exit 1
    fi
    sleep 0.1
  done
}
start_grow_server
"$WORK/crashcheck" -addr "$GADDR" -state "$WORK/state.grow" -prefix grow -workers 2 load &
GLOAD_PID=$!
for _ in $(seq 1 600); do
  grep -q "grew pool" "$GLOG" && break
  kill -0 "$GROW_PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$GROW_PID"
GROW_PID=""
wait "$GLOAD_PID"
if ! grep -q "grew pool" "$GLOG"; then
  echo "load never drove an online grow:" >&2
  cat "$GLOG" >&2
  exit 1
fi
echo "   $(grep -c 'grew pool' "$GLOG") grow(s) committed before the kill"
start_grow_server
TOTAL=$(awk '/pool bytes: total=/ {sub(/^.*total=/, ""); print $1; exit}' "$GLOG")
OK=0
SZ=$GROW_INIT
while [ "$SZ" -le "$GROW_MAX" ]; do
  [ "$TOTAL" = "$SZ" ] && OK=1
  SZ=$((SZ * 2))
done
if [ "$OK" != 1 ]; then
  echo "recovered pool capacity $TOTAL is off the doubling schedule ($GROW_INIT..$GROW_MAX):" >&2
  cat "$GLOG" >&2
  exit 1
fi
echo "   recovered to $TOTAL bytes (on the doubling schedule)"
"$WORK/crashcheck" -addr "$GADDR" -state "$WORK/state.grow" -prefix grow -workers 2 verify
kill -9 "$GROW_PID" 2>/dev/null || true
GROW_PID=""

echo "== strict-durability round: kill -9 with the async syncer in strict mode =="
# A third server on its own image running -durability strict: fences no
# longer msync inline but block on the background syncer's durable
# watermark (group commit). The contract is unchanged — every acknowledged
# write must survive kill -9 — only now the ack path runs through the async
# pipeline, so a watermark bug (acking before the batch's fdatasync) shows
# up here as lost acked keys.
SPMEM="$WORK/strict.pmem"
SLOG="$WORK/strict.log"
start_strict_server() {
  : > "$SLOG"
  "$WORK/nvmemcached" -listen 127.0.0.1:0 -mem $((64 << 20)) -buckets 4096 \
    -pmem-file "$SPMEM" -durability strict -latency 0 -sweep 0 >> "$SLOG" 2>&1 &
  STRICT_PID=$!
  SADDR=""
  for _ in $(seq 1 100); do
    SADDR=$(awk '/listening on/ {a=$NF} END {print a}' "$SLOG")
    [ -n "$SADDR" ] && break
    if ! kill -0 "$STRICT_PID" 2>/dev/null; then
      echo "strict-durability server died during startup:" >&2
      cat "$SLOG" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$SADDR" ]; then
    echo "strict-durability server never reported its listen address:" >&2
    cat "$SLOG" >&2
    exit 1
  fi
}
start_strict_server
"$WORK/crashcheck" -addr "$SADDR" -state "$WORK/state.strict" -prefix strict -workers 2 load &
SLOAD_PID=$!
sleep "$LOAD_SECONDS"
kill -9 "$STRICT_PID"
STRICT_PID=""
wait "$SLOAD_PID"
ACKED=$(cat "$WORK/state.strict"* 2>/dev/null | awk -F= '/^acked=/ {s += $2} END {print s + 0}')
if [ "${ACKED:-0}" -lt 100 ]; then
  echo "strict round: only $ACKED acknowledged sets before the kill" >&2
  exit 1
fi
echo "   killed strict-durability server with $ACKED acknowledged sets"
start_strict_server
if ! grep -q "recovered" "$SLOG"; then
  echo "strict-durability restart did not run recovery:" >&2
  cat "$SLOG" >&2
  exit 1
fi
echo "   $(awk '/recovered/ {sub(/^.*recovered/, "recovered"); print; exit}' "$SLOG")"
"$WORK/crashcheck" -addr "$SADDR" -state "$WORK/state.strict" -prefix strict -workers 2 verify
kill -9 "$STRICT_PID" 2>/dev/null || true
STRICT_PID=""

echo "== kill-during-recovery round =="
# Recovery itself must be crash-safe: SIGKILL the restarting process while
# it is mid-attach-sweep (after "attaching to", before "listening on"),
# then prove the NEXT recovery still serves the full acknowledged frontier.
kill -9 "$SRV_PID"
SRV_PID=""
KILLED_MID=0
for attempt in $(seq 1 10); do
  : > "$LOG"
  "$WORK/nvmemcached" -listen 127.0.0.1:0 -mem $((64 << 20)) -buckets 4096 \
    -pmem-file "$PMEM" -shards "$SHARDS" -latency 0 -sweep 0 >> "$LOG" 2>&1 &
  SRV_PID=$!
  # Kill the instant the attach line appears — the window to "listening on"
  # is the recovery sweep.
  for _ in $(seq 1 500); do
    grep -q "attaching to" "$LOG" && break
    kill -0 "$SRV_PID" 2>/dev/null || break
  done
  kill -9 "$SRV_PID" 2>/dev/null || true
  wait "$SRV_PID" 2>/dev/null || true
  SRV_PID=""
  if grep -q "attaching to" "$LOG" && ! grep -q "listening on" "$LOG"; then
    KILLED_MID=1
    echo "   killed recovery in flight on attempt $attempt"
    break
  fi
done
if [ "$KILLED_MID" != 1 ]; then
  echo "could not land a SIGKILL inside the recovery window in 10 attempts" >&2
  exit 1
fi
start_server
if ! grep -q "recovered" "$LOG"; then
  echo "restart after killed recovery did not run recovery:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "   $(awk '/recovered/ {sub(/^.*recovered/, "recovered"); print; exit}' "$LOG")"
verify_all_rounds "$ROUNDS"

echo "== clean shutdown round (SIGTERM) =="
kill -TERM "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
start_server
verify_all_rounds "$ROUNDS"

echo "crash_e2e: PASS — every acknowledged write survived $ROUNDS kill -9 crashes, a strict-syncer kill -9, a kill -9 mid-recovery, and a clean restart (shards=$SHARDS)"
