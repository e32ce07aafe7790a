"""Integration: the asyncio driver hosting many sessions in one process.

The acceptance bar for the sans-IO refactor: eight concurrent two-site
sessions (sixteen sites) multiplexed on a single event loop, each
producing exactly the per-frame checksums of its discrete-event twin —
merged inputs depend only on the sources and the lag, never on timing.
"""

from repro.core.aio import AioSessionSpec, run_sessions, simulator_checksums
from repro.core.config import SyncConfig
from repro.core.messages import MODE_ROLLBACK
from repro.core.policy import AdaptiveEngine
from repro.core.rollback import RollbackEngine
from repro.emulator.machine import create_game


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
    return RollbackEngine(
        runtime, max_frames, spec_machine=create_game(runtime.game_id), **options
    )


def adaptive_engine(runtime, max_frames, **options):
    """Rollback-born: on loopback (and the twin's 40 ms) the policy may
    settle it to lockstep, which must not move a single checksum."""
    return AdaptiveEngine(
        runtime,
        max_frames,
        spec_machine=create_game(runtime.game_id),
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
