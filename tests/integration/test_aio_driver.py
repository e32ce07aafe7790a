"""Integration: the asyncio driver hosting many sessions in one process.

The acceptance bar for the sans-IO refactor: eight concurrent two-site
sessions (sixteen sites) multiplexed on a single event loop, each
producing exactly the per-frame checksums of its discrete-event twin —
merged inputs depend only on the sources and the lag, never on timing.
"""

import asyncio

from repro.core.aio import AioSessionSpec, AioSite, run_sessions, simulator_checksums
from repro.core.config import SyncConfig
from repro.core.engine import SiteEngine, SitePeer, SiteRuntime
from repro.core.inputs import IdleSource, InputAssignment, PadSource, RandomSource
from repro.core.latejoin import register_late_join
from repro.core.messages import MODE_ROLLBACK
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.net.udp import AsyncUdpEndpoint


def make_specs(count, frames=60):
    config = SyncConfig(cfps=120, buf_frame=6)
    return [
        AioSessionSpec(
            game="counter",
            frames=frames,
            seed=100 + index,
            config=config,
            session_id=index + 1,
            linger=0.5,  # bound the post-game pump; see AioSessionSpec
        )
        for index in range(count)
    ]


class TestAioDriver:
    def test_eight_concurrent_sessions_match_the_simulator(self):
        specs = make_specs(8)
        groups = run_sessions(specs)
        assert len(groups) == 8
        for spec, runtimes in zip(specs, groups):
            checksums = [list(rt.trace.checksums) for rt in runtimes]
            # Both replicas executed every frame...
            assert all(len(c) == spec.frames for c in checksums)
            # ...agree with each other...
            assert checksums[0] == checksums[1]
            # ...and with the discrete-event twin for the same seeds.
            assert checksums[0] == simulator_checksums(spec)

    def test_sessions_are_independent(self):
        # Different seeds steer different input streams, so concurrent
        # sessions must not share any lockstep state.
        specs = make_specs(2, frames=40)
        groups = run_sessions(specs)
        first = [rt.trace.checksums for rt in groups[0]]
        second = [rt.trace.checksums for rt in groups[1]]
        assert list(first[0]) != list(second[0])


def rollback_engine(runtime, max_frames, **options):
    return SiteEngine(
        runtime, max_frames, spec_machine=create_game(runtime.game_id), **options
    )


def adaptive_engine(runtime, max_frames, **options):
    """Rollback-born: on loopback (and the twin's 40 ms) the policy may
    settle it to lockstep, which must not move a single checksum."""
    return SiteEngine(
        runtime,
        max_frames,
        spec_machine=create_game(runtime.game_id),
        adaptive=True,
        initial_mode=MODE_ROLLBACK,
        **options,
    )


def assert_matches_simulator(make_engine, frames=120):
    """Two concurrent sessions of one engine kind over loopback UDP equal
    their discrete-event twins built with the same engine constructor."""
    specs = make_specs(2, frames=frames)
    for spec in specs:
        spec.make_engine = make_engine
    groups = run_sessions(specs)
    for spec, runtimes in zip(specs, groups):
        checksums = [list(rt.trace.checksums) for rt in runtimes]
        assert all(len(c) == spec.frames for c in checksums)
        assert checksums[0] == checksums[1]
        assert checksums[0] == simulator_checksums(spec)
    return [runtime for runtimes in groups for runtime in runtimes]


class TestEveryModeOnAsyncio:
    def test_rollback_engine_matches_the_simulator(self):
        for runtime in assert_matches_simulator(rollback_engine):
            assert runtime.rollback_stats.speculative_frames == 120

    def test_adaptive_engine_matches_the_simulator(self):
        for runtime in assert_matches_simulator(adaptive_engine):
            # Born in rollback mode: it speculated before any settle.
            assert runtime.rollback_stats.speculative_frames > 0


async def late_join_over_loopback(frames, join_after):
    """Two players on loopback UDP; an observer (site 2) joins from site
    0's savestate on its own AioSite once ``join_after`` seconds passed."""
    config = SyncConfig(cfps=120, buf_frame=6)
    assignment = InputAssignment.with_observers(2, 1)
    sources = [PadSource(RandomSource(40 + s), s) for s in (0, 1)] + [IdleSource()]
    endpoints = [await AsyncUdpEndpoint.open() for _ in range(3)]
    peers = [SitePeer(s, endpoints[s].address) for s in range(3)]
    sites = []
    for s in range(3):
        runtime = SiteRuntime(
            config=config,
            site_no=s,
            assignment=assignment,
            machine=create_game("counter"),
            source=sources[s],
            peers=peers,
            game_id="counter",
            handshake_sites=[0, 1],
        )
        donor = 0 if s == 2 else None
        engine = SiteEngine(runtime, frames, linger=0.5, donor_site=donor)
        sites.append(AioSite(engine, endpoints[s]))
    players, joiner = sites[:2], sites[2]
    register_late_join(players, players[0], joiner_site=2)

    async def join_late():
        await asyncio.sleep(join_after)
        await joiner.run()

    try:
        await asyncio.gather(*(site.run() for site in players), join_late())
    finally:
        for endpoint in endpoints:
            endpoint.close()
    return sites


class TestLateJoinOnAsyncio:
    def test_observer_joins_a_running_session(self):
        frames = 240
        sites = asyncio.run(late_join_over_loopback(frames, join_after=0.5))
        joiner = sites[2]
        assert joiner.engine.joined_at_frame is not None
        overlap = ConsistencyChecker().verify_traces(
            [site.runtime.trace for site in sites]
        )
        assert overlap == frames - joiner.engine.joined_at_frame

