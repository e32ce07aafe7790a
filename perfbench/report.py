"""Metric values from measured sessions, named as in ``BENCHMARK.json``.

"Per frame" in a per-layer metric means per site-frame: one frame
presented at one site.  A two-site session therefore has twice as many
site-frames as frame slots.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence

from calibrate import scale, scale_slots
from sessions import WARM_FRAMES, SessionRun
from tracing import LAYERS, SpanSummary


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0–100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mib() -> float:
    """Peak resident set of this process (``VmHWM``), in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart ``VmHWM`` from the current resident set where Linux allows."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def figure_stats(runs: List[SessionRun]) -> Dict[str, float]:
    """Figures 1–2: frame-time mean, deviation, p99 and site difference."""
    pooled: List[float] = []
    diffs: List[float] = []
    for run in runs:
        for group in run.groups:
            times = [trace.frame_times()[WARM_FRAMES:] for trace in group]
            for series in times:
                pooled.extend(series)
            for left, right in zip(times, times[1:]):
                diffs.extend(abs(a - b) for a, b in zip(left, right))
    mean = statistics.fmean(pooled)
    return {
        "frame_ms_mean": mean * 1e3,
        "frame_mad_ms": statistics.fmean(abs(t - mean) for t in pooled) * 1e3,
        "frame_ms_p99": percentile(pooled, 99) * 1e3,
        "site_diff_ms": statistics.fmean(diffs) * 1e3,
    }


def end_to_end(
    runs: List[SessionRun], setup: List[float], peak_rss_mb: float
) -> Dict[str, float]:
    """End-to-end values of one run's untraced sessions.

    Host times are scaled by the calibration loop: each slot cost by the
    loop samples around it, pooled over the run's sessions; CPU time per
    session by that session's median loop, and the median over sessions
    is reported.  A slow spell of the host therefore cancels out instead
    of setting the run's figure.  Unscaled figures and the loop's median
    come back too, under ``raw.*`` names, for the human-readable summary.
    """
    site_frames = sum(run.site_frames for run in runs)
    attempted = sum(run.attempted for run in runs)
    values: Dict[str, float] = {}
    scaled = [
        cost
        for run in runs
        for cost in scale_slots(run.slot_costs, run.slot_marks, run.calibration)
    ]
    raw = [cost for run in runs for cost in run.slot_costs]
    for name, q in (("frame_cost_us_p50", 50), ("frame_cost_us_p99", 99)):
        values[name] = percentile(scaled, q) * 1e6
        values[f"raw.{name}"] = percentile(raw, q) * 1e6
    cpu = [run.cpu_s / run.site_frames for run in runs]
    values["cpu_us_per_site_frame"] = statistics.median(
        value * scale(run.calibration) for value, run in zip(cpu, runs)
    ) * 1e6
    values["raw.cpu_us_per_site_frame"] = statistics.median(cpu) * 1e6
    values["raw.calibration_loop_us"] = statistics.median(
        sample for run in runs for sample in run.calibration
    ) * 1e6
    values.update({
        "wire_bytes_per_frame": sum(run.bytes_sent for run in runs) / site_frames,
        "datagrams_per_frame": sum(run.datagrams_sent for run in runs) / site_frames,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "failed_frame_ratio": sum(run.failed for run in runs) / attempted,
    })
    # The first session stands for the run: on the simulator every session
    # repeats it exactly (checked), and pooling copies would only move the
    # last digits with the number of sessions that fit the run.
    values.update(figure_stats(runs[:1]))
    return values


def per_layer(
    traced: List[SessionRun],
    untraced: List[SessionRun],
    summary: SpanSummary,
    unattributed_s: float,
) -> Dict[str, float]:
    sf = sum(run.site_frames for run in traced)
    sessions = len(traced)
    counter = lambda key: sum(run.counters[key] for run in traced)  # noqa: E731
    calls = summary.calls
    own = summary.layer_self

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us_per_frame(layer: str) -> float:
        return own[layer] / sf * 1e6

    steps = calls("emulator")
    saves = ("save_state", "save_delta")
    restores = ("load_state", "apply_delta")
    encode_names = ("encode", "encode_body", "encode_packet", "pack_batch")
    encode_s = sum(summary.name_self[("codec", name)] for name in encode_names)
    encodes = calls("codec", ("encode_body",))
    decodes = calls("codec", ("decode",))
    predicted = counter("predicted_frames")
    late_calls, late_s = summary.late_inputs
    aio = [run for run in traced if run.workload.mode == "aio"]
    wake_late = [late for run in aio for late in run.wake_late]

    # Tracing overhead: traced against untraced cost per site-frame, in
    # wall time on the simulator and in CPU time on the paced aio driver.
    def cost(runs: List[SessionRun]) -> float:
        spent = sum(run.cpu_s if run.workload.mode == "aio" else run.wall_s
                    for run in runs)
        return spent / sum(run.site_frames for run in runs)

    values = {
        "emulator.steps_per_frame": steps / sf,
        "emulator.step_us": ratio(summary.inclusive("emulator", ("step",)), steps) * 1e6,
        "emulator.self_us_per_frame": us_per_frame("emulator"),
        "emulator.block_hits_per_step": ratio(counter("block_hits"), steps),
        "emulator.blocks_compiled": counter("blocks_compiled") / sessions,
        "emulator.fallback_steps": counter("fallback_steps") / sessions,
        "state.checksums_per_frame": calls("state", ("checksum",)) / sf,
        "state.checksum_us": ratio(
            summary.inclusive("state", ("checksum",)), calls("state", ("checksum",))
        ) * 1e6,
        "state.save_us": ratio(summary.inclusive("state", saves), calls("state", saves)) * 1e6,
        "state.restore_us": ratio(
            summary.inclusive("state", restores), calls("state", restores)
        ) * 1e6,
        "state.snapshot_calls_per_frame": calls("state", saves + restores) / sf,
        "state.bytes_copied_per_frame": summary.size("state", saves + restores) / sf,
        "state.self_us_per_frame": us_per_frame("state"),
        "inputs.get_calls_per_frame": calls("inputs") / sf,
        "inputs.get_us": ratio(summary.inclusive("inputs", ("get",)), calls("inputs")) * 1e6,
        "inputs.get_us_last_decile": ratio(late_s, late_calls) * 1e6,
        "inputs.self_us_per_frame": us_per_frame("inputs"),
        "lockstep.calls_per_frame": calls("lockstep") / sf,
        "lockstep.self_us_per_frame": us_per_frame("lockstep"),
        "lockstep.stall_ms_per_frame": counter("stall_s") / sf * 1e3,
        "lockstep.retransmitted_inputs_per_frame": counter("retransmitted_inputs") / sf,
        "lockstep.duplicate_inputs_per_frame": counter("duplicate_inputs") / sf,
        "codec.encodes_per_frame": encodes / sf,
        "codec.encode_us": ratio(encode_s, encodes) * 1e6,
        "codec.decodes_per_frame": decodes / sf,
        "codec.decode_us": ratio(summary.name_self[("codec", "decode")], decodes) * 1e6,
        "codec.bytes_per_datagram": ratio(
            sum(run.bytes_sent for run in traced),
            sum(run.datagrams_sent for run in traced),
        ),
        "codec.batch_coalesced_per_frame": counter("batch_coalesced") / sf,
        "engine.calls_per_frame": calls("engine") / sf,
        "engine.effects_per_call": ratio(summary.size("engine", ("start", "handle", "poll")),
                                         calls("engine")),
        "engine.self_us_per_frame": us_per_frame("engine"),
        "sim.events_per_frame": sum(run.counters.get("events", 0) for run in traced) / sf,
        "sim.self_us_per_frame": us_per_frame("sim"),
        "sim.datagrams_lost_per_frame": counter("datagrams_lost") / sf,
        "sim.datagrams_duplicated_per_frame": counter("datagrams_duplicated") / sf,
        "obs.records_per_frame": calls("obs", ("emit",)) / sf,
        "obs.self_us_per_frame": us_per_frame("obs"),
        "rollback.rollbacks_per_frame": counter("rollbacks") / sf,
        "rollback.replayed_frames_per_frame": counter("replayed_frames") / sf,
        "rollback.predict_hit_ratio": ratio(
            predicted - counter("mispredicted_frames"), predicted
        ),
        "rollback.max_replay_depth": max(run.counters["max_replay_depth"] for run in traced),
        "policy.switches": counter("policy_switches") / sessions,
        "aio.wake_late_ms_p50": percentile(wake_late, 50) * 1e3 if wake_late else 0.0,
        "aio.wake_late_ms_p99": percentile(wake_late, 99) * 1e3 if wake_late else 0.0,
        "aio.send_us": ratio(summary.inclusive("aio", ("send",)), calls("aio", ("send",))) * 1e6,
        "aio.datagrams_per_frame": calls("aio", ("send",)) / sf,
        "aio.send_errors": counter("send_errors"),
        "aio.loop_busy_ratio": ratio(sum(run.cpu_s for run in aio),
                                     sum(run.wall_s for run in aio)),
        "trace.total_us_per_frame": sum(run.wall_s for run in traced) / sf * 1e6,
        "trace.unattributed_us_per_frame": unattributed_s / sf * 1e6,
        "trace.overhead_ratio": cost(traced) / cost(untraced),
    }
    return values


def layer_table(summary: SpanSummary, total_s: float, site_frames: int) -> List[str]:
    """Human-readable split of the traced total into layer self times."""
    lines = [f"{'layer':<14}{'self us/frame':>15}{'share':>9}"]
    for layer in LAYERS:
        seconds = summary.layer_self.get(layer, 0.0)
        lines.append(
            f"{layer:<14}{seconds / site_frames * 1e6:>15.2f}{seconds / total_s:>9.1%}"
        )
    remainder = total_s - summary.self_total()
    lines.append(
        f"{'unattributed':<14}{remainder / site_frames * 1e6:>15.2f}{remainder / total_s:>9.1%}"
    )
    lines.append(f"{'traced total':<14}{total_s / site_frames * 1e6:>15.2f}{1:>9.1%}")
    return lines
