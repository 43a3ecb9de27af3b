#!/usr/bin/env bash
# Chaos gate for the skpd daemon: a sharded skpd_loopback sweep whose
# client is SIGKILLed mid-shard and restarted — with the surviving shards
# additionally self-dropping their connections (SKPD_DROP_EVERY) — must
# merge to bytes identical to the calm uninterrupted run, which in turn
# must match the in-process netsim_des goldens on every shared counter.
# A daemon sweep with faults, retries, link phases and a deadline must
# match the same netsim_des sweep too, fault and link cells included.
# Also checks the simctl SIGTERM contract: an interrupted sweep leaves a
# VALID partial document with a "# interrupted at spec N" trailer, exits
# non-zero, and the merge refuses the partial.
#
# Capacity phase: the daemon is started holding SKPD_CHAOS_PRELOAD
# (default 100000) preloaded idle sessions, so every kill/resume/drop in
# this script lands on a server already at bulk-hosting scale. Idle
# sessions must survive the keepalive/linger reaper (they never attach,
# so the linger clock never starts) and must all appear in the drain
# stats CSV.
# Usage: tools/skpd_chaos_check.sh [BUILD_DIR] (default "build").
set -euo pipefail

build_dir="${1:-build}"
simctl="$build_dir/tools/simctl"
skpd="$build_dir/tools/skpd"
for bin in "$simctl" "$skpd"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found — build the simctl and skpd targets" >&2
    exit 2
  fi
done

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# One long-lived daemon shared by every run below, so kills and resumes
# land on a server that keeps sessions alive across client generations —
# and one that is ALREADY holding a bulk preload of idle sessions, so the
# chaos phases double as a capacity regression check.
preload="${SKPD_CHAOS_PRELOAD:-100000}"
"$skpd" --port=0 --keepalive=5 --session-linger=30 \
    --preload-sessions="$preload" \
    --stats-csv="$tmp/skpd_stats.csv" > "$tmp/skpd_port.txt" \
    2> "$tmp/skpd_log.txt" &
daemon_pid=$!
# Preloading 100k sessions takes a few seconds before the port banner.
for _ in $(seq 1 600); do
  grep -q '^SKPD_PORT=' "$tmp/skpd_port.txt" 2>/dev/null && break
  sleep 0.05
done
port="$(sed -n 's/^SKPD_PORT=//p' "$tmp/skpd_port.txt" | head -1)"
[[ -n "$port" ]] || { echo "error: skpd never announced a port" >&2; exit 1; }
export SKPD_ADDR="127.0.0.1:$port"

# A 6-spec sweep (3 seeds x 2 cache sizes) over the daemon-served driver.
args=(run --driver skpd_loopback --seeds 1:3:1 --cache-sizes 10,20
      --requests 250)

# Golden reference: the same sweep in process via netsim_des. The driver
# column is the ONLY difference allowed.
"$simctl" run --driver netsim_des --seeds 1:3:1 --cache-sizes 10,20 \
    --requests 250 --csv "$tmp/golden.csv"

# Calm full run through the daemon.
"$simctl" "${args[@]}" --csv "$tmp/calm.csv"
sed 's/,skpd_loopback,/,netsim_des,/' "$tmp/calm.csv" \
    | diff - "$tmp/golden.csv" \
    || { echo "error: daemon rows diverge from netsim_des goldens" >&2; exit 1; }

# The DES section through the daemon: lossy transfers with retries on a
# time-varying link, counting deadline hits. Again only the driver column
# may differ from the in-process rows.
des=(--seeds 1:2:1 --cache-sizes 10,20 --requests 250 --fail-rate 0.2
     --retry 3:0.5:2:0.1 --link-phases 100:1:0,40:0.25:2 --deadline 15)
"$simctl" run --driver netsim_des "${des[@]}" --csv "$tmp/des_golden.csv"
"$simctl" run --driver skpd_loopback "${des[@]}" --csv "$tmp/des_daemon.csv"
sed 's/,skpd_loopback,/,netsim_des,/' "$tmp/des_daemon.csv" \
    | diff - "$tmp/des_golden.csv" \
    || { echo "error: faulty daemon rows diverge from netsim_des" >&2; exit 1; }

# Chaos shard 0: start, SIGKILL the client mid-sweep, then re-run the
# shard to completion with forced connection drops layered on top.
"$simctl" "${args[@]}" --shard 0/2 --csv "$tmp/shard0.csv" &
victim=$!
sleep 0.2
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
SKPD_DROP_EVERY=17 "$simctl" "${args[@]}" --shard 0/2 \
    --csv "$tmp/shard0.csv" 2>/dev/null
# Chaos shard 1: no kill, but every 23rd step tears the connection down.
SKPD_DROP_EVERY=23 "$simctl" "${args[@]}" --shard 1/2 \
    --csv "$tmp/shard1.csv" 2>/dev/null

"$simctl" merge "$tmp/merged.csv" "$tmp/shard0.csv" "$tmp/shard1.csv"
diff "$tmp/calm.csv" "$tmp/merged.csv" \
    || { echo "error: chaos merge is not byte-identical to calm run" >&2; exit 1; }

# SIGTERM mid-sweep: simctl must finish in-flight specs, write a valid
# partial document with the interruption trailer, and exit non-zero.
# (100 single-threaded specs of 20k DES cycles: several seconds of work,
# so the signal always lands mid-sweep.)
"$simctl" run --driver netsim_des --seeds 1:100:1 --requests 20000 \
    --threads 1 --csv "$tmp/partial.csv" 2> "$tmp/partial_err.txt" &
sweep=$!
sleep 0.4
kill -TERM "$sweep" 2>/dev/null || true
rc=0
wait "$sweep" || rc=$?
[[ "$rc" -ne 0 ]] || { echo "error: interrupted sweep exited 0" >&2; exit 1; }
grep -q '^# interrupted at spec ' "$tmp/partial.csv" \
    || { echo "error: partial document missing interruption trailer" >&2
         cat "$tmp/partial_err.txt" >&2; exit 1; }
head -1 "$tmp/partial.csv" | grep -q '^index,' \
    || { echo "error: partial document lost its header" >&2; exit 1; }
# And the merge gate refuses the trailered partial.
if "$simctl" merge "$tmp/never.csv" "$tmp/partial.csv" 2> "$tmp/merge_err.txt"
then
  echo "error: merge accepted an interrupted partial document" >&2
  exit 1
fi
grep -q "interrupted partial" "$tmp/merge_err.txt" \
    || { echo "error: partial-merge rejection not descriptive:" >&2
         cat "$tmp/merge_err.txt" >&2; exit 1; }

# The preloaded idle sessions must still be resident after every chaos
# phase above: they never attach, so the keepalive/linger reaper has no
# business touching them.
grep -q "preloaded $preload idle session" "$tmp/skpd_log.txt" \
    || { echo "error: daemon log missing preload confirmation" >&2
         cat "$tmp/skpd_log.txt" >&2; exit 1; }

# Graceful drain: SIGTERM the daemon, require exit 0 and a complete
# stats CSV (header present, no torn rows, one row per idle session).
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[[ "$rc" -eq 0 ]] || { echo "error: skpd drain exited $rc" >&2
                       cat "$tmp/skpd_log.txt" >&2; exit 1; }
head -1 "$tmp/skpd_stats.csv" | grep -q '^token,executed,total,done,' \
    || { echo "error: drain stats CSV missing or torn" >&2; exit 1; }
stats_rows="$(($(wc -l < "$tmp/skpd_stats.csv") - 1))"
[[ "$stats_rows" -ge "$preload" ]] \
    || { echo "error: drain stats hold $stats_rows rows," \
              "expected >= $preload preloaded idle sessions" >&2; exit 1; }

echo "skpd chaos gate passed: killed+resumed sweep merged byte-identical" \
     "to the calm run, calm and faulty runs match netsim_des, interrupted" \
     "simctl left a valid trailered partial, daemon held $preload idle" \
     "sessions throughout and drained all $stats_rows with exit 0"
