"""The benchmark's four workloads: how each session is built, run and checked.

Three workloads run on the discrete-event simulator and advance as fast as
the host allows (closed loop); one runs real UDP over loopback on asyncio,
where every frame is due 16.67 ms after the previous one whatever the host
load (open loop).  The workload seed picks the input sources' seeds and
the simulated network's impairment seed; the program only ever sees the
pad words those sources produce.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.aio import AioSessionSpec, SessionHost, host_sessions, simulator_checksums
from repro.core.config import SyncConfig
from repro.core.engine import SiteEngine
from repro.core.inputs import InputAssignment, PadSource, RandomSource, TapSource
from repro.core.multisite import SessionPlan, build_session
from repro.core.policy import AdaptiveEngine, build_adaptive_session
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker, ConsistencyError, FrameTrace
from repro.net.netem import WAN_PROFILES, NetemConfig

from calibrate import EVERY_SLOTS, Calibrator
from tracing import SLOT_S, Patches, Tracer, instrument

#: Frames (per site) left out of the Figure 1–2 statistics, and slots left
#: out of the frame-cost samples: the block-code cache fills here.
WARM_FRAMES = 60

#: Post-game pump of the asyncio sites (the driver's default).
AIO_LINGER_S = 2.0

#: Shortest session the benchmark accepts (warm-up plus two seconds).
MIN_FRAMES = WARM_FRAMES + 120


@dataclass(frozen=True)
class Workload:
    name: str
    game: str
    #: Session length per site, in frames (aio: derived from the run time).
    frames: int
    #: "lockstep", "adaptive" or "aio".
    mode: str
    netem: Optional[NetemConfig] = None
    time_server: bool = True
    #: Arcade-structured taps instead of independent random toggles.
    taps: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lockstep-pong", "pong", 3600, "lockstep",
                 netem=NetemConfig.for_rtt(0.040)),
        Workload("lockstep-counter-lossy", "counter", 3600, "lockstep",
                 netem=NetemConfig.for_rtt(0.040, loss=0.05), time_server=False),
        Workload("adaptive-pong-wan300", "pong", 1800, "adaptive",
                 netem=WAN_PROFILES["wan-300"], taps=True),
        Workload("aio-pong-loopback", "pong", 0, "aio"),
    )
}


def aio_frames(seconds: float) -> int:
    """Session length that lets two concurrent aio sessions fit ``seconds``.

    Frames run about 6% slower than the 16.67 ms slot on loopback, and
    each site lingers after its last frame.
    """
    return max(MIN_FRAMES, int((seconds - AIO_LINGER_S - 0.5) / (SLOT_S * 1.06)))


def aio_sessions() -> int:
    """Two concurrent sessions, never more than the host has cores."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class SessionRun:
    """What one measured session leaves behind."""

    workload: Workload
    frames: int
    #: Site traces grouped per session (sim: one group; aio: one per session).
    groups: List[List[FrameTrace]]
    terminations: List[Optional[str]]
    wall_s: float
    cpu_s: float
    #: Host seconds per frame slot after warm-up (sim: wall; aio: CPU per session).
    slot_costs: List[float]
    #: Calibration samples taken before each slot cost was measured.
    slot_marks: List[int]
    bytes_sent: int
    datagrams_sent: int
    #: Program-side counters, summed over sites.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Calibration-loop seconds measured during the session (untraced runs);
    #: their wall and CPU time are already taken out of ``wall_s``/``cpu_s``.
    calibration: List[float] = field(default_factory=list)
    #: Seconds each aio wakeup landed after its deadline (traced runs).
    wake_late: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Site-frames that were not presented, not verified or diverged.
    failed: int = 0
    #: Per-session simulator twins of aio checksums (filled by ``check``).
    twins: Optional[List[List[int]]] = None
    specs: List[AioSessionSpec] = field(default_factory=list)

    @property
    def traces(self) -> List[FrameTrace]:
        return [trace for group in self.groups for trace in group]

    @property
    def site_frames(self) -> int:
        return sum(trace.frames for trace in self.traces)

    @property
    def attempted(self) -> int:
        return len(self.traces) * self.frames


def sources(workload: Workload, seed: int) -> List[PadSource]:
    kind = TapSource if workload.taps else RandomSource
    return [PadSource(kind(seed + site), site) for site in (0, 1)]


def build_sim(workload: Workload, seed: int, frames: int):
    """Build (not run) one simulated two-site session."""
    factory = lambda: create_game(workload.game)  # noqa: E731
    if workload.mode == "adaptive":
        return build_adaptive_session(
            factory, sources(workload, seed), workload.netem,
            frames=frames, seed=seed, game_id=workload.game,
        )
    plan = SessionPlan(
        config=SyncConfig(),
        assignment=InputAssignment.standard(2),
        machines=[factory(), factory()],
        sources=sources(workload, seed),
        game_id=workload.game,
        max_frames=frames,
        seed=seed,
    )
    return build_session(plan, workload.netem, with_time_server=workload.time_server)


def aio_specs(workload: Workload, seed: int, frames: int) -> List[AioSessionSpec]:
    return [
        AioSessionSpec(
            game=workload.game, frames=frames, seed=seed + 2 * index,
            session_id=index + 1, linger=AIO_LINGER_S,
        )
        for index in range(aio_sessions())
    ]


class _BuildOnly(SessionHost):
    """A host that returns as soon as every session is built."""

    async def run(self) -> None:
        return None


def setup_seconds(workload: Workload, seed: int) -> float:
    """Host seconds to build one session: machines, ROMs, network, engines.

    For aio that is the sockets and engines of every concurrent session;
    ``host_sessions`` closes the sockets again because the host returns
    without running.
    """
    if workload.mode == "aio":
        async def build() -> float:
            begin = time.perf_counter()
            await host_sessions(aio_specs(workload, seed, MIN_FRAMES),
                                session_host=_BuildOnly())
            return time.perf_counter() - begin

        return asyncio.run(build())
    begin = time.perf_counter()
    build_sim(workload, seed, workload.frames)
    return time.perf_counter() - begin


def _machines(vms) -> list:
    machines = []
    for vm in vms:
        machines.append(vm.runtime.machine)
        spec = getattr(vm, "spec_machine", None)
        if spec is not None:
            machines.append(spec)
    return machines


def _program_counters(runtimes, machines, vms=()) -> Dict[str, float]:
    counters: Dict[str, float] = {
        "retransmitted_inputs": 0, "duplicate_inputs": 0, "batch_coalesced": 0,
        "send_errors": 0, "stall_s": 0.0, "blocks_compiled": 0,
        "block_hits": 0, "fallback_steps": 0, "rollbacks": 0,
        "replayed_frames": 0, "predicted_frames": 0,
        "mispredicted_frames": 0, "max_replay_depth": 0, "policy_switches": 0,
        "datagrams_lost": 0, "datagrams_duplicated": 0,
    }
    for runtime in runtimes:
        stats = runtime.lockstep.stats
        counters["retransmitted_inputs"] += stats.inputs_retransmitted
        counters["duplicate_inputs"] += stats.duplicate_inputs_received
        counters["batch_coalesced"] += runtime.metrics.net_batch_coalesced.value
        counters["send_errors"] += runtime.metrics.send_errors.value
        counters["stall_s"] += sum(runtime.trace.sync_stall)
    for machine in machines:
        cpu_stats = getattr(machine, "cpu_stats", None)
        if cpu_stats is not None:
            stats = cpu_stats()
            for key in ("blocks_compiled", "block_hits", "fallback_steps"):
                counters[key] += stats[key]
    for vm in vms:
        socket_stats = vm.socket.stats
        counters["datagrams_lost"] += socket_stats.datagrams_dropped
        counters["datagrams_duplicated"] += socket_stats.datagrams_duplicated
        rollback = getattr(vm, "rollback_stats", None)
        if rollback is not None:
            for key in ("rollbacks", "replayed_frames", "predicted_frames",
                        "mispredicted_frames"):
                counters[key] += getattr(rollback, key)
            counters["max_replay_depth"] = max(
                counters["max_replay_depth"], rollback.max_replay_depth
            )
        counters["policy_switches"] += getattr(vm, "policy_switch_count", 0)
    return counters


def run_sim(workload: Workload, seed: int, frames: int,
            tracer: Optional[Tracer] = None) -> SessionRun:
    """Build and run one simulated session, sampling host time per slot."""
    patches = Patches()
    if tracer is not None:
        engine_cls = AdaptiveEngine if workload.mode == "adaptive" else SiteEngine
        instrument(tracer, patches, type(create_game(workload.game)), engine_cls)
    try:
        session = build_sim(workload, seed, frames)
        gc.collect()
        loop = session.loop
        vms = session.vms
        clock = time.perf_counter
        costs: List[float] = []
        marks: List[int] = []
        calibrator = Calibrator()
        horizon = 3 * frames * SLOT_S + 60.0
        wall0, cpu0 = clock(), time.process_time()
        for vm in vms:
            vm.start()
        slot = 0
        while not all(vm.finished for vm in vms):
            if tracer is not None:
                tracer.frame = slot
            slot += 1
            if slot * SLOT_S > horizon:
                break
            begin = clock()
            loop.run(until=slot * SLOT_S)
            if slot > WARM_FRAMES:
                costs.append(clock() - begin)
                marks.append(len(calibrator.samples))
            if tracer is None and slot % EVERY_SLOTS == 0:
                calibrator.sample()
        loop.run(until=horizon)
        wall = clock() - wall0 - calibrator.wall_s
        cpu = time.process_time() - cpu0 - calibrator.cpu_s
    finally:
        patches.restore()
    problems = []
    for vm in vms:
        if vm.process is not None and vm.process.finished:
            try:
                vm.process.result()
            except Exception as exc:  # a crashed site is a failed output check
                problems.append(f"site {vm.runtime.site_no} crashed: {exc!r}")
    runtimes = [vm.runtime for vm in vms]
    return SessionRun(
        workload=workload,
        frames=frames,
        groups=[[runtime.trace for runtime in runtimes]],
        terminations=[vm.engine.termination for vm in vms],
        wall_s=wall,
        cpu_s=cpu,
        slot_costs=costs,
        slot_marks=marks,
        bytes_sent=sum(vm.socket.stats.bytes_sent for vm in vms),
        datagrams_sent=sum(vm.socket.stats.datagrams_sent for vm in vms),
        counters=_program_counters(runtimes, _machines(vms), vms)
        | {"events": loop.events_processed},
        calibration=calibrator.samples,
        problems=problems,
    )


def run_aio(workload: Workload, seed: int, frames: int,
            tracer: Optional[Tracer] = None) -> SessionRun:
    """Host the aio sessions on a fresh event loop over loopback UDP."""
    specs = aio_specs(workload, seed, frames)
    per_slot: List[float] = []
    marks: List[int] = []
    host = SessionHost()
    calibrator = Calibrator()

    async def sample_cpu() -> None:
        loop = asyncio.get_running_loop()
        start, last, slot = loop.time(), time.process_time(), 0
        while True:
            slot += 1
            await asyncio.sleep(max(0.0, start + slot * SLOT_S - loop.time()))
            now = time.process_time()
            sites = host.sites
            if sites and all(site.finished for site in sites):
                return
            if slot > WARM_FRAMES:
                per_slot.append((now - last) / len(specs))
                marks.append(len(calibrator.samples))
            if tracer is None and slot % EVERY_SLOTS == 0:
                calibrator.sample()
                now = time.process_time()  # the loop's CPU is not the program's
            last = now

    async def main():
        sampler = asyncio.get_running_loop().create_task(sample_cpu())
        try:
            return await host_sessions(specs, session_host=host, raise_errors=False)
        finally:
            sampler.cancel()
            try:
                await sampler
            except asyncio.CancelledError:
                pass

    patches = Patches()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if tracer is not None:
        instrument(tracer, patches, type(create_game(workload.game)), SiteEngine,
                   aio_origin=time.monotonic())
    try:
        gc.collect()
        groups = asyncio.run(main())
    finally:
        patches.restore()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0 - calibrator.cpu_s
    sites = host.sites
    runtimes = [site.runtime for site in sites]
    return SessionRun(
        workload=workload,
        frames=frames,
        groups=[[runtime.trace for runtime in group] for group in groups],
        terminations=[site.engine.termination for site in sites],
        wall_s=wall,
        cpu_s=cpu,
        slot_costs=per_slot,
        slot_marks=marks,
        bytes_sent=sum(site.endpoint.stats.bytes_sent for site in sites),
        datagrams_sent=sum(site.endpoint.stats.datagrams_sent for site in sites),
        counters=_program_counters(runtimes, [r.machine for r in runtimes]),
        calibration=calibrator.samples,
        wake_late=list(tracer.wake_late) if tracer is not None else [],
        problems=[f"site error: {error!r}" for error in host.errors()],
        specs=specs,
    )


def run_session(workload: Workload, seed: int, frames: int,
                tracer: Optional[Tracer] = None) -> SessionRun:
    runner = run_aio if workload.mode == "aio" else run_sim
    return runner(workload, seed, frames, tracer)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def verify_group(traces: List[FrameTrace], frames: int) -> int:
    """Cross-site check of one session's traces; returns failed site-frames.

    Frames a site never presented fail at that site; from the first
    divergent frame on, every site's frames fail.
    """
    failed = sum(max(0, frames - trace.frames) for trace in traces)
    checker = ConsistencyChecker()
    try:
        checker.verify_traces(traces)
    except ConsistencyError:
        first = checker.first_divergence
        failed += sum(max(0, min(trace.frames, frames) - first) for trace in traces)
    return failed


def check(run: SessionRun) -> SessionRun:
    """Run every output check on ``run``; fills ``problems`` and ``failed``."""
    failed = 0
    for group in run.groups:
        group_failed = verify_group(group, run.frames)
        if group_failed:
            run.problems.append(
                f"{group_failed} site-frames unpresented or divergent"
            )
        failed += group_failed
    for index, termination in enumerate(run.terminations):
        if termination != "completed":
            run.problems.append(f"site {index} ended {termination!r}, not completed")
    if run.specs:
        if run.twins is None:
            run.twins = [simulator_checksums(spec) for spec in run.specs]
        for spec, twin, group in zip(run.specs, run.twins, run.groups):
            for trace in group:
                mismatch = next(
                    (f for f, (a, b) in enumerate(zip(trace.checksums, twin)) if a != b),
                    None,
                )
                if mismatch is not None:
                    run.problems.append(
                        f"session {spec.session_id} site {trace.site_no} differs "
                        f"from its simulator twin at frame {mismatch}"
                    )
                    failed += trace.frames - mismatch
    if run.problems and not failed:
        failed = run.attempted  # a crash or bad termination fails the session
    run.failed = min(failed, run.attempted)
    return run


def digest(run: SessionRun) -> tuple:
    """Everything about a simulated session that must repeat exactly."""
    crc = 0
    for trace in run.traces:
        for values in (trace.checksums, trace.inputs, trace.begin_times):
            crc = zlib.crc32(repr(values).encode(), crc)
    return (crc, run.bytes_sent, run.datagrams_sent, sorted(run.counters.items()))
