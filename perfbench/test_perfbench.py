"""Smoke tests of the benchmark itself (run: ``python3 -m pytest perfbench -q``).

Each workload runs at the smallest session the benchmark accepts, through
the real command line, in both modes.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from sessions import MIN_FRAMES, WORKLOADS, check, run_session  # noqa: E402
from tracing import (  # noqa: E402
    END, LAYER, PARENT, START, Patches, SpanSummary, Tracer, instrument, reconcile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 3


def run_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_unit_and_finite_value(workload, trace):
    done = run_command(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
        "--frames", str(MIN_FRAMES), "--trace", trace,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * MIN_FRAMES
    group = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in group}
    for entry in group:
        assert NAME.match(entry["name"])
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(result["metrics"][entry["name"]]["value"] > 0 for entry in group)


def test_names_and_units_follow_the_contract():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64
    for key in ("end_to_end", "per_layer"):
        for entry in SPEC[key]:
            assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"])
    setup = [entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_self_times_of_nested_spans():
    spans = [
        ("engine", "handle", 0.0, 10.0, -1, 0, 0),
        ("codec", "decode", 1.0, 3.0, 0, 0, 0),
        ("lockstep", "on_sync", 4.0, 8.0, 0, 0, 0),
        ("obs", "emit", 5.0, 6.0, 2, 0, 0),
    ]
    summary = SpanSummary()
    summary.add(spans, frames=1)
    assert summary.layer_self == {"engine": 4.0, "codec": 2.0, "lockstep": 3.0, "obs": 1.0}
    assert reconcile(summary, 12.0)["unattributed_s"] == pytest.approx(2.0)
    with pytest.raises(AssertionError):
        reconcile(summary, 9.0)


@pytest.mark.parametrize("workload", ["lockstep-counter-lossy", "adaptive-pong-wan300"])
def test_traced_session_reconciles_and_restores_the_program(workload):
    from repro.emulator.machine import create_game

    machine_cls = type(create_game(WORKLOADS[workload].game))
    original = machine_cls.checksum
    tracer = Tracer()
    run = check(run_session(WORKLOADS[workload], SEED, MIN_FRAMES, tracer))
    assert machine_cls.checksum is original
    assert not run.problems and run.failed == 0
    summary = SpanSummary()
    summary.add(tracer.spans, MIN_FRAMES)
    split = reconcile(summary, run.wall_s)
    roots = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    assert split["attributed_s"] == pytest.approx(roots, rel=1e-9)
    assert split["attributed_s"] + split["unattributed_s"] == pytest.approx(run.wall_s)
    layers = {span[LAYER] for span in tracer.spans}
    assert {"emulator", "state", "inputs", "lockstep", "codec", "engine", "sim", "obs"} <= layers


def test_untraced_and_traced_sessions_repeat_exactly():
    from sessions import digest

    workload = WORKLOADS["lockstep-pong"]
    plain = run_session(workload, SEED, MIN_FRAMES)
    traced = run_session(workload, SEED, MIN_FRAMES, Tracer())
    assert digest(plain) == digest(traced)


def test_output_check_fires_on_one_flipped_checksum():
    run = check(run_session(WORKLOADS["lockstep-counter-lossy"], SEED, MIN_FRAMES))
    assert not run.problems and run.failed == 0
    broken = copy.deepcopy(run)
    broken.problems, broken.failed = [], 0
    broken.groups[0][1].checksums[100] ^= 1
    check(broken)
    assert broken.problems
    assert broken.failed == 2 * (MIN_FRAMES - 100)


def test_aio_twin_check_fires_on_one_flipped_checksum():
    run = check(run_session(WORKLOADS["aio-pong-loopback"], SEED, MIN_FRAMES))
    assert not run.problems and run.failed == 0
    broken = copy.deepcopy(run)
    broken.problems, broken.failed = [], 0
    trace = broken.groups[0][0]
    trace.checksums[150] ^= 1
    broken.groups[0][1].checksums[150] ^= 1  # both sites agree, twin does not
    check(broken)
    assert any("simulator twin" in problem for problem in broken.problems)
    assert broken.failed > 0


def test_patches_restore_inherited_and_own_attributes():
    from repro.core.engine import SiteEngine
    from repro.core.policy import AdaptiveEngine
    from repro.emulator.console import Console
    from repro.emulator.machine import Machine

    def state():
        return (AdaptiveEngine.handle, SiteEngine.handle, Console.step,
                Machine.step, "handle" in vars(AdaptiveEngine), "step" in vars(Console))

    before = state()
    with Patches() as patches:
        instrument(Tracer(), patches, Console, AdaptiveEngine)
        assert state() != before
    assert state() == before


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_command("--workload", "lockstep-pong", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
