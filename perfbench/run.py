#!/usr/bin/env python3
"""Repository benchmark: builds perfbench here and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
library, the skpd daemon and the perfbench binary (Release) into
.bench_build/; later runs rebuild incrementally. Every result is preceded
by a `host:` line (the host fingerprint: wall-clock numbers compare only
against the same host) and the last stdout line is the JSON result. A
copy of both lands in .bench_build/results/.

--self-test runs each workload briefly with one expected value corrupted
and exits 0 only if every run reports failures.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
OUT_DIR = BUILD_ROOT / "out"
RESULTS_DIR = BUILD_ROOT / "results"
WORKLOADS = ("fig7_oracle", "learned_des")
RUN_TIMEOUT_S = 170
# Compiler and benchmark temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD_ROOT / "tmp"))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no repository sources under {ROOT}")
    (BUILD_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=ENV)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       check=True, stdout=sys.stderr, env=ENV)
    return BUILD_DIR / "perfbench"


def isa_level(flags):
    v2 = {"cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3"}
    v3 = v2 | {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe"}
    v4 = v3 | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}
    for name, need in (("x86-64-v4", v4), ("x86-64-v3", v3),
                       ("x86-64-v2", v2)):
        if need <= flags:
            return name
    return "x86-64" if "sse2" in flags else os.uname().machine


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "tools", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def fingerprint():
    cpu_model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and cpu_model == "unknown":
                cpu_model = value.strip()
            elif key == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "isa_level": isa_level(flags),
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": source_revision(),
    }


def run_binary(binary, workload, seed, seconds, trace, perturb=False):
    """Runs one workload; returns the parsed result or None on failure."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--skpd-bin", str(BUILD_DIR / "skp" / "tools" / "skpd"),
           "--out-dir", str(OUT_DIR)]
    if perturb:
        cmd.append("--perturb")
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=ENV)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload} exited with code {proc.returncode}")
        return None
    lines = stdout.strip().splitlines()
    if not lines:
        log(f"{workload} printed no result")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload} printed a malformed result")
        return None
    return result


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_binary(binary, workload, 1, 1, trace, perturb=True)
            caught = (result is not None and result["failed"] > 0
                      and not result["correct"])
            log(f"self-test {workload} trace={trace}: "
                f"{'caught' if caught else 'MISSED'} the corrupted value")
            ok = ok and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_test:
        return self_test(binary)

    host = fingerprint()
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if result is None:
        return 1
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    record.write_text(json.dumps({"host": host, "result": result}, indent=1))
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
