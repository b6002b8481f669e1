#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/DESIGN.md).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the program's libraries and the benchmark program from source into
.bench_build/ (first run only; later runs rebuild incrementally), runs the
statistics self-test, then runs one workload. Its standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. The metric names
and units are checked against BENCHMARK.json before the line is printed. With
--trace 1 the span file is written to .bench_build/traces/<workload>.json.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("decode_debug", "rpc_session", "wide_parallel")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed; see .bench_build/build.log")
    test = subprocess.run([str(BUILD / "perfbench_stats_test")], capture_output=True, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout + test.stderr)
        fail("statistics self-test failed")


def source_id():
    """The commit when the tree is a git checkout, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        lines = head.stdout.split()
        # Only this tree's own repository counts, not one it happens to sit in.
        if head.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_result(line, declared):
    """The last line must name exactly the declared metrics, in their units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if m.get("unit") != declared[name]:
            raise ValueError(f"{name}: unit {m.get('unit')!r}, declared {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name}: value {v!r}")
    return result


def run_workload(name, args, declared, commit):
    cmd = [str(BUILD / "perfbench"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", commit]
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-file", str(BUILD / "traces" / f"{name}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{name}: no output (exit {proc.returncode})")
    try:
        result = check_result(lines[-1], declared)
    except ValueError as e:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"{name}: malformed result line: {e}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stderr.write(proc.stderr)
    return proc.returncode == 0 and result["correct"] and result["failed"] == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}
    build()
    commit = source_id()
    ok = True
    for name in (WORKLOADS if args.workload == "all" else (args.workload,)):
        ok = run_workload(name, args, declared, commit) and ok
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
