#!/usr/bin/env python3
"""The repository benchmark: one command, four session workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lockstep-pong --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics, the layer self-time split and the tracing overhead.
Metric names and units come from ``BENCHMARK.json``.  Every session's
outputs are checked; the last stdout line is one JSON object and the exit
status is non-zero when any check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Recorded default; the steadiness proof also ran a second seed.
DEFAULT_SEED = 7
DEFAULT_SECONDS = 25
#: Fresh processes that each time one first session build.
SETUP_PROBES = 7
#: Where spans and exact counts are written (ignored by git).
OUT_DIR = ROOT / ".perfbench"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not NAME.match(entry["name"]):
                fail(f"bad name {entry['name']!r} in BENCHMARK.json")
    return spec


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def setup_samples(workload: str, seed: int) -> tuple:
    """Set-up times, each from a fresh process's first build: scaled and raw."""
    from calibrate import scale

    scaled, raw = [], []
    for __ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        seconds, loop = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * scale([loop]))
    return scaled, raw


def measure(name: str, seed: int, seconds: float, trace: bool, frames: int) -> dict:
    """Run one workload; returns its result object (not yet printed)."""
    from report import (
        end_to_end, layer_table, peak_rss_mib, per_layer, reset_peak_rss,
    )
    from sessions import (
        MIN_FRAMES, WORKLOADS, aio_frames, check, digest, run_session,
    )
    from tracing import SpanSummary, Tracer, reconcile, write_spans

    workload = WORKLOADS[name]
    reset_peak_rss()
    if not trace:
        setup, raw_setup = setup_samples(name, seed)
    warm = workload if workload.mode != "aio" else WORKLOADS["lockstep-pong"]
    run_session(warm, seed, MIN_FRAMES)  # fill import, ROM and code caches
    if workload.mode == "aio":
        length = frames or aio_frames(seconds / 2 if trace else seconds)
    else:
        length = frames or workload.frames
    problems = []
    untraced, traced = [], []
    summary = SpanSummary()
    unattributed = 0.0
    counts = None
    last_spans = []
    deadline = time.perf_counter() + seconds
    per_pair = 0.0
    while True:
        began = time.perf_counter()
        untraced.append(check(run_session(workload, seed, length)))
        if len(untraced) == 1:
            # Later sessions repeat the first; the traces this run keeps
            # for its checks are the benchmark's memory, not the program's.
            peak_rss_mb = peak_rss_mib()
        if trace:
            tracer = Tracer()
            run = check(run_session(workload, seed, length, tracer))
            traced.append(run)
            one = SpanSummary()
            one.add(tracer.spans, length)
            unattributed += reconcile(one, run.wall_s)["unattributed_s"]
            if counts is None:
                counts = one.counts()
            elif workload.mode != "aio" and one.counts() != counts:
                problems.append("traced call counts differ between runs at one seed")
            summary.merge(one)
            last_spans = tracer.spans
        per_pair = max(per_pair, time.perf_counter() - began)
        if workload.mode == "aio":
            break
        now = time.perf_counter()
        if len(untraced) >= 2 and (
            now >= deadline or now + per_pair > deadline + 0.1 * seconds
        ):
            break
    runs = untraced + traced
    if workload.mode != "aio":
        first = digest(runs[0])
        if any(digest(run) != first for run in runs[1:]):
            problems.append("simulated session did not repeat exactly at one seed")
    for run in runs:
        problems.extend(run.problems)
    failed = sum(run.failed for run in runs)
    if problems and not failed:
        failed = sum(run.attempted for run in runs)
    attempted = sum(run.attempted for run in runs)

    lines = []
    if trace:
        values = per_layer(traced, untraced, summary, unattributed)
        total = sum(run.wall_s for run in traced)
        lines = layer_table(summary, total, sum(run.site_frames for run in traced))
        lines.append(f"tracing overhead: traced/untraced cost {values['trace.overhead_ratio']:.3f}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{name}-seed{seed}"
        write_spans(f"{stem}-spans.tsv", last_spans)
        with open(f"{stem}-counts.json", "w") as handle:
            json.dump({"calls_and_sizes": counts,
                       "counters": runs[0].counters,
                       "digest": repr(digest(runs[0]))}, handle, indent=1)
    else:
        values = end_to_end(untraced, setup, peak_rss_mb)
        values["raw.setup_s"] = statistics.median(raw_setup)
        lines = [f"{name:<40} {value:>14.4f}" for name, value in values.items()
                 if name.startswith("raw.")]
    return {
        "workload": name,
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "lines": lines,
    }


def emit(spec: dict, result: dict, trace: bool, prefix: str = "") -> dict:
    """Print the human summary; return the contract's metrics object."""
    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    print(f"== {result['workload']} ({'traced' if trace else 'untraced'})")
    for line in result["lines"]:
        print("  " + line)
    values = result["values"]
    for entry in spec[group]:
        value = values[entry["name"]]
        if not math.isfinite(value):
            result["problems"].append(f"{entry['name']} is not finite")
        metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<40} {value:>14.4f} {entry['unit']}")
    if not trace:
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_frame_ratio':<40} {ratio:>14.4f} ratio")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    return metrics


def main(argv=None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, default=0,
                        help="session length override (smoke runs)")
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    from sessions import MIN_FRAMES

    if args.frames and args.frames < MIN_FRAMES:
        parser.error(f"--frames must be at least {MIN_FRAMES}")

    chosen = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        result = measure(name, args.seed, args.seconds, bool(args.trace),
                         args.frames)
        prefix = f"{name}." if len(chosen) > 1 else ""
        combined["metrics"].update(emit(spec, result, bool(args.trace), prefix))
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["correct"] &= not result["problems"] and result["failed"] == 0
    sys.stdout.flush()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
