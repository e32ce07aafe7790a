"""Session fingerprints: a refactor guard for the engine.

One short seeded simulator session per engine configuration — lockstep,
pinned rollback, adaptive (with at least one mode switch), late join and
crash+resume — reduced to a per-site fingerprint: a CRC of the per-frame
checksums, the frames executed, the rollback and policy-switch counters,
the datagrams and bytes sent, and the termination reason.  Simulated
sessions are deterministic, so any change to these values means the
engine's observable behaviour moved; a pure refactor must leave every
pinned value as it is.
"""

import zlib

import pytest

from repro.core.config import SyncConfig
from repro.core.engine import SiteEngine, SitePeer, SiteRuntime
from repro.core.inputs import IdleSource, PadSource, RandomSource
from repro.core.latejoin import register_late_join
from repro.core.multisite import (
    build_session,
    players_and_observers_plan,
    site_address,
    two_player_plan,
)
from repro.core.policy import build_adaptive_session
from repro.core.rollback import build_rollback_session
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.harness.chaos import crash_resume_schedule, run_chaos
from repro.net.netem import NetemConfig, named_profile

FRAMES = 240


def sources(seed, count=2):
    return [PadSource(RandomSource(seed + s), s) for s in range(count)]


def fingerprint(termination, checksums, counters, replayed):
    """(checksum CRC, frames, rollbacks, replayed frames, policy switches,
    datagrams sent, bytes sent, termination) for one site."""
    return (
        zlib.crc32(",".join(map(str, checksums)).encode()),
        len(checksums),
        int(counters["rollbacks"]),
        replayed,
        int(counters["policy_switches"]),
        int(counters["datagrams_sent"]),
        int(counters["bytes_sent"]),
        termination,
    )


def session_fingerprints(session):
    session.run(horizon=600.0)
    prints = []
    for vm in session.vms:
        stats = getattr(vm.engine, "rollback_stats", None)
        prints.append(
            fingerprint(
                vm.engine.termination,
                vm.runtime.trace.checksums,
                vm.engine.snapshot()["counters"],
                stats.replayed_frames if stats is not None else 0,
            )
        )
    return prints


def lockstep_session():
    plan = two_player_plan(
        SyncConfig(),
        machine_factory=lambda: create_game("pong"),
        sources=sources(7),
        game_id="pong",
        max_frames=FRAMES,
        seed=7,
    )
    return build_session(plan, NetemConfig(delay=0.02, loss=0.05))


def rollback_session():
    return build_rollback_session(
        lambda: create_game("pong"),
        sources(7),
        NetemConfig.for_rtt(0.100),
        frames=FRAMES,
        seed=7,
    )


def adaptive_session():
    return build_adaptive_session(
        lambda: create_game("pong"),
        sources(7),
        named_profile("wan-300"),
        frames=FRAMES,
        seed=7,
        game_id="pong",
    )


def late_join_session():
    """Two players plus an observer that joins from site 0's savestate."""
    config = SyncConfig.paper_defaults()
    plan = players_and_observers_plan(
        config,
        machine_factory=lambda: create_game("counter"),
        player_sources=sources(30),
        num_observers=1,
        game_id="counter",
        max_frames=360,
        handshake_sites=[0, 1],
    )
    session = build_session(plan, NetemConfig.for_rtt(0.040), excluded_sites=[2])
    runtime = SiteRuntime(
        config=config,
        site_no=2,
        assignment=plan.assignment,
        machine=create_game("counter"),
        source=IdleSource(),
        peers=[SitePeer(s, site_address(s)) for s in range(3)],
        game_id="counter",
    )
    engine = SiteEngine(
        runtime,
        360,
        donor_site=0,
        frame_compute_time=plan.frame_compute_time,
        time_server_address=session.time_server.address,
    )
    joiner = DistributedVM(session.loop, session.network, engine, start_delay=2.0)
    register_late_join(session.vms, session.vms[0], joiner_site=2)
    session.vms.append(joiner)
    return session


def resume_fingerprints():
    """Site 1 crashes at 2 s and resumes from site 0 at 3.5 s."""
    result = run_chaos(crash_resume_schedule(at=2.0, downtime=1.5, site=1))
    assert result.passed, result.problems
    return [
        fingerprint(out.termination, out.checksums, out.metrics["counters"], 0)
        for out in result.outcomes
    ]


#: Values recorded before the engine classes were folded into one.
EXPECTED = {
    "lockstep": [
        (2955898776, 240, 0, 0, 0, 419, 3982, "completed"),
        (2955898776, 240, 0, 0, 0, 628, 6498, "completed"),
    ],
    "rollback": [
        (4267052851, 240, 111, 372, 0, 421, 4548, "completed"),
        (4267052851, 240, 109, 253, 0, 422, 4587, "completed"),
    ],
    "adaptive": [
        (2955898776, 240, 72, 209, 1, 443, 6730, "completed"),
        (2955898776, 240, 79, 214, 1, 444, 6799, "completed"),
    ],
    "late-join": [
        (2564961999, 360, 0, 0, 0, 1231, 15494, "completed"),
        (2564961999, 360, 0, 0, 0, 810, 9286, "completed"),
        (882786902, 240, 0, 0, 0, 600, 5985, "completed"),
    ],
    "resume": [
        (526026635, 240, 0, 0, 0, 627, 8603, "completed"),
        (3840315569, 119, 0, 0, 0, 45, 986, "completed"),
    ],
}


@pytest.mark.parametrize(
    "name, run",
    [
        ("lockstep", lambda: session_fingerprints(lockstep_session())),
        ("rollback", lambda: session_fingerprints(rollback_session())),
        ("adaptive", lambda: session_fingerprints(adaptive_session())),
        ("late-join", lambda: session_fingerprints(late_join_session())),
        ("resume", resume_fingerprints),
    ],
)
def test_session_fingerprint(name, run):
    prints = run()
    if name == "adaptive":
        assert all(site[4] >= 1 for site in prints)
    assert prints == EXPECTED[name]
