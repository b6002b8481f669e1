#!/usr/bin/env python3
"""Run the benchmark binaries and aggregate their BENCH_JSON lines.

Every bench binary (bench/bench_*.cpp) prints one machine-readable line per
measurement through the shared JsonLineReporter:

    BENCH_JSON {"name":"BM_JournalOverhead/1","backend":"fibers",...}

This script sweeps the built binaries, scrapes those lines, and writes one
aggregate document to --out so a change can commit its measured numbers
alongside the code that produced them. With --repetitions N every benchmark
runs N times and only its median row (the reporter's "aggregate":"median"
line) is stored.

Standard library only; no third-party dependencies.

Usage:
    scripts/collect_bench.py --out /tmp/all.json               # quick pass
    scripts/collect_bench.py --min-time 0.5 --out BENCH_PR<n>.json
    scripts/collect_bench.py --only scaling --filter BM_JournalRecord \
        --repetitions 5 --out /tmp/journal.json
"""

import argparse
import glob
import json
import os
import subprocess
import sys


def scrape_bench_json(stdout):
    """Parses every `BENCH_JSON {...}` line.

    A malformed record is an error, not a skip: silently dropping it would
    let a broken reporter pass the sweep with a truncated aggregate.
    """
    records = []
    for lineno, line in enumerate(stdout.splitlines(), start=1):
        if not line.startswith("BENCH_JSON "):
            continue
        payload = line[len("BENCH_JSON "):]
        try:
            records.append(json.loads(payload))
        except json.JSONDecodeError as e:
            raise RuntimeError(
                f"malformed BENCH_JSON record on stdout line {lineno}: "
                f"{e} in: {payload[:200]}") from e
    return records


def run_bench(path, min_time, bench_filter, repetitions, timeout):
    argv = [path, f"--benchmark_min_time={min_time}", "--benchmark_color=false"]
    if bench_filter:
        argv.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        argv.append(f"--benchmark_repetitions={repetitions}")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{os.path.basename(path)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    records = scrape_bench_json(proc.stdout)
    if repetitions > 1:
        records = [r for r in records if r.get("aggregate") == "median"]
    return records


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(repo, "build"),
                    help="CMake build tree holding bench/bench_* (default: build)")
    ap.add_argument("--out", required=True,
                    help="aggregate output path, e.g. BENCH_PR<n>.json")
    ap.add_argument("--min-time", type=float, default=0.05,
                    help="google-benchmark --benchmark_min_time per bench (s)")
    ap.add_argument("--only", default=None,
                    help="only run binaries whose name contains this substring")
    ap.add_argument("--filter", default=None,
                    help="forwarded as --benchmark_filter to every binary")
    ap.add_argument("--repetitions", type=int, default=1,
                    help="forwarded as --benchmark_repetitions; above 1, only "
                         "each benchmark's median row is stored")
    ap.add_argument("--timeout", type=float, default=600.0,
                    help="per-binary timeout (s)")
    args = ap.parse_args()

    benches = sorted(glob.glob(os.path.join(args.build_dir, "bench", "bench_*")))
    benches = [b for b in benches if os.path.isfile(b) and os.access(b, os.X_OK)]
    if args.only:
        benches = [b for b in benches if args.only in os.path.basename(b)]
    if not benches:
        print(f"error: no bench binaries under {args.build_dir}/bench "
              "(build first: cmake --build build -j)", file=sys.stderr)
        return 1

    aggregate = {
        "generated_by": "scripts/collect_bench.py",
        "min_time_s": args.min_time,
        "repetitions": args.repetitions,
        "benchmarks": {},
    }
    failures = 0
    for bench in benches:
        name = os.path.basename(bench)
        print(f"== {name} ==", flush=True)
        try:
            records = run_bench(bench, args.min_time, args.filter, args.repetitions,
                                args.timeout)
        except Exception as e:  # noqa: BLE001 - report and keep sweeping
            print(f"   FAIL: {e}", file=sys.stderr)
            failures += 1
            continue
        if not records and not args.filter:
            print(f"   FAIL: no BENCH_JSON lines", file=sys.stderr)
            failures += 1
            continue
        for r in records:
            if "ns_per_op" not in r:
                continue  # a non-time row (the "cv" aggregate of repetitions)
            print(f"   {r.get('name', '?')}: {r['ns_per_op'] / 1e6:.3f} ms/op")
        aggregate["benchmarks"][name] = records

    total = sum(len(v) for v in aggregate["benchmarks"].values())
    with open(args.out, "w") as f:
        json.dump(aggregate, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {total} record(s) from "
          f"{len(aggregate['benchmarks'])} binarie(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
