#!/usr/bin/env python3
"""Exit-code checks for compare_bench.py's compare gate.

Writes small synthetic snapshots, runs `compare_bench.py compare` on
each pair and fails when an exit code differs from the expected one:
0 when no gate fires, 1 for a regression or an empty comparison, 2 for
an unreadable snapshot. Registered as the ctest compare_bench_gates.

Usage: compare_bench_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")

BASELINE = {
    "context": {"num_cpus": 1},
    "benchmarks": [
        {"name": "BM_Solve", "run_type": "iteration", "cpu_time": 100.0,
         "time_unit": "ns", "solver_nodes": 1234},
        {"name": "BM_Sim", "run_type": "iteration", "cpu_time": 200.0,
         "time_unit": "ns", "items_per_second": 1.0e6,
         "plan_hit_rate": 0.9, "select_hit_rate": 0.5},
        {"name": "capacity/shared_idle", "run_type": "iteration",
         "bytes_per_session": 4800},
    ],
}


def changed(edit):
    """A copy of the baseline whose rows, keyed by name, `edit` changed."""
    snapshot = copy.deepcopy(BASELINE)
    rows = {row["name"]: row for row in snapshot["benchmarks"]}
    edit(rows)
    snapshot["benchmarks"] = list(rows.values())
    return snapshot


def rename_rows(rows):
    for row in rows.values():
        row["name"] += "_renamed"


def slower_solve(rows):
    rows["BM_Solve"]["cpu_time"] = 120.0


def node_drift(rows):
    rows["BM_Solve"]["solver_nodes"] = 1235


# (label, current snapshot: a document, raw text, or None for a missing
# file; extra flags; expected exit code)
CASES = [
    ("identical snapshots", BASELINE, [], 0),
    ("hit rate drops 0.03",
     changed(lambda rows: rows["BM_Sim"].update(plan_hit_rate=0.87)), [], 1),
    ("hit rate drops 0.015",
     changed(lambda rows: rows["BM_Sim"].update(plan_hit_rate=0.885)), [], 0),
    ("hit-rate counter vanished",
     changed(lambda rows: rows["BM_Sim"].pop("select_hit_rate")), [], 1),
    ("solver_nodes drift", changed(node_drift), [], 1),
    ("solver_nodes drift allowed", changed(node_drift),
     ["--allow-node-drift"], 0),
    ("bytes_per_session +11%",
     changed(lambda rows: rows["capacity/shared_idle"].update(
         bytes_per_session=5328)), [], 1),
    ("cpu_time +20%", changed(slower_solve), [], 1),
    ("cpu_time +20% at --threshold 1.0", changed(slower_solve),
     ["--threshold", "1.0"], 0),
    ("no row overlaps", changed(rename_rows), [], 1),
    ("a baseline row is gone",
     changed(lambda rows: rows.pop("capacity/shared_idle")), [], 0),
    ("missing current snapshot", None, [], 2),
    ("truncated current snapshot", '{"benchmarks": [', [], 2),
]


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        with open(baseline, "w") as f:
            json.dump(BASELINE, f)
        for i, (label, snapshot, flags, want) in enumerate(CASES):
            current = os.path.join(tmp, f"current{i}.json")
            if snapshot is not None:
                with open(current, "w") as f:
                    if isinstance(snapshot, str):
                        f.write(snapshot)
                    else:
                        json.dump(snapshot, f)
            got = subprocess.run(
                [sys.executable, SCRIPT, "compare", baseline, current] + flags,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True).returncode
            status = "ok" if got == want else "FAIL"
            print(f"  [{status:4}] {label}: exit {got}, expected {want}")
            failures += got != want
    if failures:
        print(f"{failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"compare_bench.py gates: all {len(CASES)} cases ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
