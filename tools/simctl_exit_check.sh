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

# Fails the gate unless the last run's diagnostic holds $1.
expect_message() {
  grep -qF -- "$1" "$tmp/err.txt" || {
    echo "error: expected the diagnostic to name '$1', got:" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  }
}

# An unknown flag (fail()), a thread count past the cap and a seed range
# past the sweep bound (std::invalid_argument from the parsers).
expect_exit 2 run --bogus
expect_exit 2 run --threads 1025
expect_exit 2 run --seeds 0:18446744073709551615:1
# Spec files: a line that is not a flag, a --spec line inside a spec
# file, a file that cannot be read (missing, or a directory), and an old
# JSON spec file. Each diagnostic names the file, and the line where
# there is one.
printf -- '--driver netsim_des\n\nrequests 50\n' > "$tmp/bad line.flags"
expect_exit 2 run --spec "$tmp/bad line.flags"
expect_message "$tmp/bad line.flags:3: "
printf -- '# nested\n--spec %s\n' "$tmp/bad line.flags" > "$tmp/nested.flags"
expect_exit 2 run --spec "$tmp/nested.flags"
expect_message "$tmp/nested.flags:2: "
expect_exit 2 run --spec "$tmp/missing.flags"
expect_message "$tmp/missing.flags"
expect_exit 2 run --spec "$tmp"
expect_message "cannot read $tmp"
cat > "$tmp/old.json" <<'EOF'
{
  "base": {"driver": "netsim_des", "n_items": 24, "requests": 300},
  "axes": {"seeds": "1:3:1", "cache_sizes": [6, 12]}
}
EOF
expect_exit 2 run --spec "$tmp/old.json"
expect_message "$tmp/old.json:1: "
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
