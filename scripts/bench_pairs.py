#!/usr/bin/env python3
"""Run alternating benchmark pairs on two source trees and summarise them.

A performance claim compares two versions of the program on a shared host,
where the host's own speed drifts from minute to minute. Pairs make that
drift cancel: each pair runs one workload once on each tree, back to back,
with the first side alternating from pair to pair, and a side "wins" a pair
when its run is better on a metric. This script runs such pairs through each
tree's own `perfbench/run.py` (which builds the tree into its own
`.bench_build/`) and writes, per metric and side, the median, first and
third quartiles and wins, plus what is needed to judge the runs: the seeds,
the first side of every pair, every run's RECORD/HOST calibration and steal
figures and each tree's source digest.

The trees are exported copies, for example:

    git archive <base-rev> | tar -x -C /tmp/base
    git archive <change-rev> | tar -x -C /tmp/change

Usage:
    scripts/bench_pairs.py --base /tmp/base --change /tmp/change \\
        --workload decode_debug --seeds 5301-5310 --seconds 20 \\
        --out BENCH_PR<n>.json

The output file keeps whatever else it already holds; the run lands under
"pairs" -> <workload>. Metric directions come from the change tree's
BENCHMARK.json. Standard library only.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text):
    """'5301-5305' or '5301,5303,5307' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-", 1))
            seeds.extend(range(lo, hi + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def source_digest(tree):
    """sha256 over the tree's src/ files, the same digest perfbench/run.py
    reports for a tree that is not a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(tree)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_once(tree, workload, seed, seconds, timeout):
    """One perfbench run; returns its result line plus RECORD/HOST figures."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    record = host = result = None
    for line in lines:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        elif line.startswith("HOST "):
            host = json.loads(line[len("HOST "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        raise RuntimeError(f"{tree}: no result line (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {
        "seed": seed,
        "exit": proc.returncode,
        "wall_s": round(wall, 3),
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "calibration_ms": record.get("calibration_ms") if record else None,
        "calibration_ms_after": host.get("calibration_ms_after") if host else None,
        "steal_share": host.get("steal_share") if host else None,
    }


def quartiles(values):
    """(Q1, median, Q3) by the inclusive method; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(pairs, directions):
    """Per metric: each side's quartiles and how many pairs it won."""
    out = {}
    for name, better in directions.items():
        base = [p["base"]["metrics"].get(name) for p in pairs]
        change = [p["change"]["metrics"].get(name) for p in pairs]
        if any(v is None for v in base + change):
            continue
        wins = {"base": 0, "change": 0, "tie": 0}
        for b, c in zip(base, change):
            if b == c:
                wins["tie"] += 1
            elif (c > b) == (better == "higher"):
                wins["change"] += 1
            else:
                wins["base"] += 1
        entry = {"better": better, "wins": wins}
        for side, values in (("base", base), ("change", change)):
            q1, med, q3 = quartiles(values)
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        bq = entry["base"]
        entry["median_ratio"] = (entry["change"]["median"] / bq["median"]
                                 if bq["median"] else None)
        entry["gap_exceeds_base_iqr"] = (
            abs(entry["change"]["median"] - bq["median"]) > bq["q3"] - bq["q1"])
        out[name] = entry
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="exported tree of the baseline")
    ap.add_argument("--change", required=True, type=Path, help="exported tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 5301-5310 or 5301,5305")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to add the run to")
    ap.add_argument("--timeout", type=float, default=600.0, help="per-run timeout (s)")
    args = ap.parse_args()

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: {tree} has no perfbench/run.py ({side})", file=sys.stderr)
            return 2
    seeds = parse_seeds(args.seeds)
    if not seeds:
        print("error: no seeds", file=sys.stderr)
        return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    # One short run per tree first: builds it, so no timed pair pays a build.
    for side, tree in trees.items():
        print(f"building {side}: {tree}", flush=True)
        run_once(tree, args.workload, seeds[0], 1, args.timeout)

    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds, args.timeout)
        pairs.append(pair)
        summary = " ".join(
            f"{side}={pair[side]['metrics'].get('throughput_per_s', float('nan')):.1f}"
            for side in ("base", "change"))
        print(f"pair {i + 1}/{len(seeds)} seed {seed} first={order[0]}: "
              f"throughput_per_s {summary}", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("pairs", {})[args.workload] = {
        "generated_by": "scripts/bench_pairs.py",
        "seconds": args.seconds,
        "seeds": seeds,
        "host_cpus": os.cpu_count(),
        "trees": {side: {"name": tree.name, "source": source_digest(tree)}
                  for side, tree in trees.items()},
        "summary": summarise(pairs, directions),
        "runs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    failed = sum(1 for p in pairs for side in ("base", "change")
                 if p[side]["exit"] != 0 or not p[side]["correct"] or p[side]["failed"])
    print(f"wrote {args.out}: {len(pairs)} pair(s), {failed} failed run(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
