#!/usr/bin/env python3
"""Interleaved parent/change comparison with the repository benchmark.

Usage::

    python3 perfbench/ab.py --parent ../parent --change . \\
        --workload lockstep-pong --pairs 10 --seed 11

``--parent`` and ``--change`` are two checkouts that hold identical
``perfbench/`` and ``BENCHMARK.json`` files (copy them into the parent
first).  Pair ``i`` runs both sides at seed ``seed + i``, and the side that
runs first alternates between pairs.  For every metric the report gives
each side's median and quartiles, how many pairs the change won, and a
verdict: ``gain`` when the change won at least nine tenths of the pairs
and the medians differ by more than the parent's quartile spread,
``worse`` when the change's median is worse by more than the metric's
bound, ``unresolved`` when the parent's own spread exceeds the bound, and
``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark failed\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    entries = spec["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    samples = {side: [] for side in sides}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            samples[side].append(
                run(sides[side], args.workload, args.seed + index,
                    spec["run_seconds"], args.trace)
            )
        print(f"pair {index + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{'metric':<40}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'wins':>7}  verdict")
    for entry in entries:
        name = entry["name"]
        sign = 1 if entry["better"] == "lower" else -1
        parent = [metrics[name]["value"] for metrics in samples["parent"]]
        change = [metrics[name]["value"] for metrics in samples["change"]]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        bound = entry.get("bound")
        verdict = "same"
        if wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1:
            verdict = "gain"
        elif bound is not None and p_med and sign * (c_med - p_med) > bound * abs(p_med):
            verdict = "worse"
        elif bound is not None and p_med and (p_q3 - p_q1) > bound * abs(p_med):
            verdict = "unresolved"
        print(f"{name:<40}{p_med:>14.4f} [{p_q1:.4f}, {p_q3:.4f}]"
              f"{c_med:>14.4f} [{c_q1:.4f}, {c_q3:.4f}]"
              f"{wins:>4}/{len(parent):<2}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
