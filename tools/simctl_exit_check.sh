#!/usr/bin/env bash
# Exit-code gate for `simctl run`: every rejected argument exits 2,
# whichever parser rejects it, before any worker starts or any sweep is
# built; a spec the driver rejects once the sweep runs exits 1, and a
# valid run exits 0. An output path that cannot be opened is a rejected
# argument too.
# Usage: tools/simctl_exit_check.sh [BUILD_DIR] (default "build").
set -euo pipefail

build_dir="${1:-build}"
if [[ ! -d "$build_dir" ]]; then
  echo "error: build dir '$build_dir' not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 2
fi
bin="$build_dir/tools/simctl"
if [[ ! -x "$bin" ]]; then
  echo "error: $bin not found — build the simctl target first" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Runs simctl with the remaining arguments and fails the gate unless it
# exits with $1.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$bin" "$@" > "$tmp/out.csv" 2> "$tmp/err.txt" || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "error: simctl $* exited $got, expected $want:" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  fi
}

# An unknown flag (fail()), a thread count past the cap and a seed range
# past the sweep bound (std::invalid_argument from the parsers), and a
# spec file that does not parse.
expect_exit 2 run --bogus
expect_exit 2 run --threads 1025
expect_exit 2 run --seeds 0:18446744073709551615:1
printf '{"base": {"driver": ' > "$tmp/truncated.json"
expect_exit 2 run --spec "$tmp/truncated.json"
# A 120 KB spec file of 60,000 nested arrays: the reader refuses it past
# its depth bound instead of recursing off the end of the stack.
{ printf '%60000s' '' | tr ' ' '['; printf '%60000s' '' | tr ' ' ']'; } \
  > "$tmp/deep.json"
expect_exit 2 run --spec "$tmp/deep.json"
# An empty item in a comma list.
expect_exit 2 run --policies kp,
# A flag of a spec section the driver does not read (the net section is
# read by the DES and scenario drivers, not by prefetch_cache).
expect_exit 2 run --driver prefetch_cache --bandwidth 2

# Output files are opened before the sweep runs: a sweep of 40 points is
# refused at once, and a multi_client run prints no main CSV before it
# refuses its per-client path.
expect_exit 2 run --cache-sizes 1:40:1 --requests 20000 --threads 1 \
  --csv /nonexistent/dir/x.csv
expect_exit 2 run --driver multi_client --requests 50 \
  --per-client-csv /nonexistent/dir/pc.csv
[[ ! -s "$tmp/out.csv" ]] || {
  echo "error: simctl printed CSV before refusing --per-client-csv:" >&2
  cat "$tmp/out.csv" >&2
  exit 1
}

# A spec the driver rejects when the sweep runs it.
expect_exit 1 run --driver scenario --sub lfu --requests 50

expect_exit 0 run --driver prefetch_cache --cache-sizes 4,8 --requests 200 \
  --seed 1
[[ "$(wc -l < "$tmp/out.csv")" == 3 ]] || {
  echo "error: expected a header and 2 rows, got:" >&2
  cat "$tmp/out.csv" >&2
  exit 1
}

echo "simctl exit codes: ok"
