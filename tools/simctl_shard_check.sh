#!/usr/bin/env bash
# Shard-equivalence gate for simctl: a sweep split across shards and
# merged must be byte-identical to the same sweep run in one process.
# Usage: tools/simctl_shard_check.sh [BUILD_DIR] (default "build").
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

# A sweep crossing three axes (2 policies x 2 subs x 3 cache sizes = 12
# specs) at reduced scale; every spec is seed-determined, so shard count
# must not matter.
args=(run --driver prefetch_cache --policies kp,skp --subs none,ds
      --cache-sizes 4,8,12 --requests 400 --seed 7)

"$bin" "${args[@]}" --csv "$tmp/single.csv"
"$bin" "${args[@]}" --shard 0/2 --csv "$tmp/shard0.csv" 2>/dev/null
"$bin" "${args[@]}" --shard 1/2 --csv "$tmp/shard1.csv" 2>/dev/null
"$bin" merge "$tmp/merged2.csv" "$tmp/shard0.csv" "$tmp/shard1.csv"

# A 3-way split (merge must also be order-insensitive in its inputs).
"$bin" "${args[@]}" --shard 0/3 --csv "$tmp/a.csv" 2>/dev/null
"$bin" "${args[@]}" --shard 1/3 --csv "$tmp/b.csv" 2>/dev/null
"$bin" "${args[@]}" --shard 2/3 --csv "$tmp/c.csv" 2>/dev/null
"$bin" merge "$tmp/merged3.csv" "$tmp/c.csv" "$tmp/a.csv" "$tmp/b.csv"

diff "$tmp/single.csv" "$tmp/merged2.csv"
diff "$tmp/single.csv" "$tmp/merged3.csv"

# Overlapping inputs must be rejected, not silently concatenated: the
# same shard file twice, and a shard overlapping the full run. The error
# must name the colliding spec index and the offending input.
for bad in "$tmp/shard0.csv $tmp/shard0.csv" \
           "$tmp/single.csv $tmp/shard1.csv"; do
  # shellcheck disable=SC2086
  if "$bin" merge "$tmp/never.csv" $bad 2> "$tmp/err.txt"; then
    echo "error: overlapping merge inputs were accepted: $bad" >&2
    exit 1
  fi
  grep -q "duplicate spec index" "$tmp/err.txt" || {
    echo "error: duplicate-index merge error not descriptive:" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  }
done
[[ ! -e "$tmp/never.csv" ]] || { echo "error: merge output created on failure" >&2; exit 1; }

# The same guarantees through a spec file (--spec): a sweep saved as
# flags, one per line, run 2-way sharded across the multi_client DES
# driver, must merge back to the single-process bytes.
cat > "$tmp/sweep.flags" <<'EOF'
--driver multi_client
--n-items 24
--clients 3
--requests 150
--cache-size 5
--predictor markov1
--predictor-warmup 16
--min-prob 0.02
--seeds 1:2:1
--cache-sizes 5,8
EOF
"$bin" run --spec "$tmp/sweep.flags" --csv "$tmp/spec_single.csv" \
    --per-client-csv "$tmp/pc_single.csv"
"$bin" run --spec "$tmp/sweep.flags" --shard 0/2 --csv "$tmp/spec0.csv" \
    --per-client-csv "$tmp/pc0.csv" 2>/dev/null
"$bin" run --spec "$tmp/sweep.flags" --shard 1/2 --csv "$tmp/spec1.csv" \
    --per-client-csv "$tmp/pc1.csv" 2>/dev/null
"$bin" merge "$tmp/spec_merged.csv" "$tmp/spec0.csv" "$tmp/spec1.csv"
diff "$tmp/spec_single.csv" "$tmp/spec_merged.csv"

# Per-client companion documents shard and merge exactly like the main
# document: rows keyed by (spec index, client), byte-identical after
# interleaving the shards back together.
"$bin" merge "$tmp/pc_merged.csv" "$tmp/pc1.csv" "$tmp/pc0.csv"
diff "$tmp/pc_single.csv" "$tmp/pc_merged.csv"

# The committed netsim DES spec file, across predictors and seeds, so
# nondeterminism in the event-driven path cannot hide behind the
# Monte-Carlo sweep above.
spec="$(dirname "${BASH_SOURCE[0]}")/specs/ci_netsim_shard.flags"
"$bin" run --spec "$spec" --csv "$tmp/des_single.csv"
"$bin" run --spec "$spec" --shard 0/2 --csv "$tmp/des0.csv" 2>/dev/null
"$bin" run --spec "$spec" --shard 1/2 --csv "$tmp/des1.csv" 2>/dev/null
"$bin" merge "$tmp/des_merged.csv" "$tmp/des0.csv" "$tmp/des1.csv"
diff "$tmp/des_single.csv" "$tmp/des_merged.csv"

rows() { echo $(($(wc -l < "$1") - 1)); }
echo "simctl shard merge is byte-identical to the single-process run" \
     "($(rows "$tmp/single.csv") flag specs, 2-way and 3-way splits;" \
     "$(rows "$tmp/spec_single.csv") + $(rows "$tmp/des_single.csv")" \
     "spec-file specs, 2-way splits, plus $(rows "$tmp/pc_single.csv")" \
     "per-client companion rows; overlapping inputs rejected)"
