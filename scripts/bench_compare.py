#!/usr/bin/env python3
"""Diff the two newest BENCH_PR*.json aggregates and flag throughput regressions.

Each PR commits its measured numbers as BENCH_PRn.json (scripts/
collect_bench.py). This script pairs the two most recent aggregates, matches
records by (binary, benchmark name, backend), and reports every benchmark
whose ns_per_op grew — or whose tokens_per_sec shrank — by more than the
threshold (default 20%). The throughput check is what covers the parallel
backend: BM_ParallelScaling / BM_ParallelAttribution amortize a whole
simulation per iteration, so ns_per_op tracks setup as much as steady state,
while their tokens_per_sec counter is the number the scaling acceptance
bars are written against.

Exit status: 0 when no regression crosses the threshold (or there is nothing
to compare), 1 otherwise. The check_build.sh step that runs this is
non-fatal — benchmark noise on shared hardware is real — but the report makes
a slowdown visible in the build log instead of buried in a JSON diff.

Standard library only; no third-party dependencies.

Usage:
    scripts/bench_compare.py                  # two highest-numbered BENCH_PR*.json
    scripts/bench_compare.py --threshold 0.5  # only flag >50% slowdowns
    scripts/bench_compare.py old.json new.json
"""

import argparse
import glob
import json
import os
import re
import sys


def load_aggregate(path):
    with open(path) as f:
        doc = json.load(f)
    records = {}
    for binary, recs in doc.get("benchmarks", {}).items():
        for r in recs:
            if "ns_per_op" not in r:
                continue  # a non-time row (the "cv" aggregate of repetitions)
            key = (binary, r.get("name", "?"), r.get("backend", "?"))
            records[key] = r
    return records


def pr_number(path):
    """The n of BENCH_PRn.json; -1 for aggregates without a PR number."""
    m = re.fullmatch(r"BENCH_PR(\d+)\.json", os.path.basename(path))
    return int(m.group(1)) if m else -1


def newest_two(repo):
    # By PR number: a fresh checkout gives every file the same mtime, and
    # file names sort BENCH_PR10 before BENCH_PR9.
    paths = glob.glob(os.path.join(repo, "BENCH_*.json"))
    paths.sort(key=lambda p: (pr_number(p), p))
    return paths[-2:] if len(paths) >= 2 else []


def fmt_ns(ns):
    """A per-op time in the largest unit that keeps it at or above 1."""
    for scale, unit in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if ns >= scale:
            return f"{ns / scale:.3f} {unit}"
    return f"{ns:.3f} ns"


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="explicit [old new] aggregates; default: the two "
                         "highest-numbered BENCH_PR*.json at the repository "
                         "root")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="flag when ns_per_op grows by more than this "
                         "fraction (default: 0.20)")
    args = ap.parse_args()

    if args.files and len(args.files) != 2:
        print("error: pass exactly two files (old new) or none", file=sys.stderr)
        return 2
    pair = args.files if args.files else newest_two(repo)
    if len(pair) < 2:
        print("bench_compare: fewer than two BENCH_*.json aggregates; "
              "nothing to compare")
        return 0
    old_path, new_path = pair
    old = load_aggregate(old_path)
    new = load_aggregate(new_path)
    print(f"bench_compare: {os.path.basename(old_path)} -> "
          f"{os.path.basename(new_path)} (threshold +{args.threshold:.0%})")

    common = sorted(set(old) & set(new))
    if not common:
        print("bench_compare: no overlapping benchmarks; nothing to compare")
        return 0
    regressions = []
    for key in common:
        before = old[key].get("ns_per_op", 0)
        after = new[key].get("ns_per_op", 0)
        if before > 0 and after > 0:
            ratio = after / before
            if ratio > 1.0 + args.threshold:
                regressions.append((key, "ns_per_op", before, after, ratio))
        # Throughput counters regress downward; same threshold, inverted.
        tps_before = old[key].get("tokens_per_sec", 0)
        tps_after = new[key].get("tokens_per_sec", 0)
        if tps_before > 0 and tps_after > 0:
            ratio = tps_before / tps_after
            if ratio > 1.0 + args.threshold:
                regressions.append(
                    (key, "tokens_per_sec", tps_before, tps_after, ratio))

    for (binary, name, backend), metric, before, after, ratio in regressions:
        if metric == "ns_per_op":
            print(f"  REGRESSION {binary} {name} [{backend}]: "
                  f"{fmt_ns(before)} -> {fmt_ns(after)}/op "
                  f"({ratio - 1.0:+.0%})")
        else:
            print(f"  REGRESSION {binary} {name} [{backend}]: "
                  f"{before / 1e6:.3f} -> {after / 1e6:.3f} Mtokens/s "
                  f"(-{1.0 - after / before:.0%})")
    flagged = len(regressions)
    print(f"bench_compare: {len(common)} benchmark(s) compared, "
          f"{flagged} regression(s) over threshold")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
