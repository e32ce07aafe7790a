"""Integration: the asyncio driver in real time over real UDP on localhost.

Short sessions at a high frame rate keep these fast (~1-2 s each) while
still exercising real sockets, real timers and the event loop's monotonic
clock.  Send-failure tests wrap the endpoint so its ``send`` raises, the
way a NIC or socket torn down underneath the driver would.
"""

import asyncio

import pytest

from repro.core.aio import AioSite, SessionHost
from repro.core.config import SyncConfig
from repro.core.engine import SiteEngine, SitePeer, SiteRuntime
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.udp import AsyncUdpEndpoint


class FailingEndpoint(AsyncUdpEndpoint):
    """Every ``send`` raises — models a NIC or socket torn down underneath
    the driver."""

    def send(self, payload, destination):
        raise OSError("injected send failure")


class FlakyEndpoint(AsyncUdpEndpoint):
    """The first ``FAIL_SENDS`` sends raise — models a transient outage
    (interface flap, buffer exhaustion)."""

    FAIL_SENDS = 25

    def __init__(self):
        super().__init__()
        self.remaining = self.FAIL_SENDS
        self.failed = 0

    def send(self, payload, destination):
        if self.remaining > 0:
            self.remaining -= 1
            self.failed += 1
            raise OSError("transient send failure")
        super().send(payload, destination)


def make_site(endpoint, site, peers, frames, config, game="counter"):
    runtime = SiteRuntime(
        config=config,
        site_no=site,
        assignment=InputAssignment.standard(2),
        machine=create_game(game),
        source=PadSource(RandomSource(70 + site), player=site),
        peers=peers,
        game_id=game,
    )
    return AioSite(SiteEngine(runtime, frames, linger=1.0), endpoint)


def run_sites(build, timeout=30.0):
    """Open endpoints, build sites with ``build(endpoints)``, run them to
    completion on a fresh event loop; returns the sites."""

    async def scenario():
        sites = await build()
        host = SessionHost()
        host.add_session(sites)
        try:
            await asyncio.wait_for(host.run(), timeout)
        finally:
            for site in sites:
                site.endpoint.close()
        return sites

    return asyncio.run(scenario())


def run_realtime(
    frames=90, cfps=120.0, game="counter", endpoint_classes=(AsyncUdpEndpoint,) * 2
):
    """Two sites over localhost UDP; returns their drivers."""
    config = SyncConfig(cfps=cfps, buf_frame=6)

    async def build():
        endpoints = [await cls.open() for cls in endpoint_classes]
        peers = [SitePeer(i, endpoints[i].address) for i in range(2)]
        return [
            make_site(endpoints[site], site, peers, frames, config, game)
            for site in range(2)
        ]

    sites = run_sites(build)
    for site in sites:
        if site.error is not None:
            raise site.error
    return sites


class TestRealtimeSession:
    def test_replicas_converge_over_real_udp(self):
        sites = run_realtime()
        traces = [site.runtime.trace for site in sites]
        assert ConsistencyChecker().verify_traces(traces) == 90

    def test_frame_pacing_near_target(self):
        sites = run_realtime(frames=120, cfps=120.0)
        for site in sites:
            times = site.runtime.trace.frame_times()
            # Real OS scheduling jitter (and CI load) is substantial at an
            # 8.3 ms budget; require the right order of magnitude, with the
            # precise pacing guarantees covered by the simulated-time tests.
            assert mean(times) == pytest.approx(1 / 120, rel=0.5)

    def test_games_play_over_real_udp(self):
        sites = run_realtime(frames=60, game="pong-py")
        machines = [site.runtime.machine for site in sites]
        assert machines[0].checksum() == machines[1].checksum()

    def test_rtt_estimated_on_loopback(self):
        sites = run_realtime(frames=60)
        for site in sites:
            assert site.runtime.rtt.samples >= 1
            assert site.runtime.rtt.rtt < 0.1  # loopback

    def test_send_failures_are_nonfatal_and_bounded(self):
        """Send failures are transient network weather, not crashes: the
        pump counts them (``net.send_errors``) and keeps running, and the
        handshake timeout — not an exception — bounds a site whose every
        datagram fails.  The first failure of a burst, and only that one,
        lands in the trace for the postmortem bundle."""
        config = SyncConfig(cfps=120, buf_frame=6, handshake_timeout_s=1.0)

        async def build():
            endpoint = await FailingEndpoint.open()
            peers = [SitePeer(0, "127.0.0.1:9"), SitePeer(1, endpoint.address)]
            # Site 1 is the joiner: it sends HELLO immediately.
            return [make_site(endpoint, 1, peers, 30, config)]

        (site,) = run_sites(build, timeout=10.0)
        runtime = site.runtime
        assert site.error is None, f"send failure escaped: {site.error!r}"
        assert site.engine.termination == "handshake-timeout"
        assert runtime.metrics.send_errors.value > 1
        errors = [r for r in runtime.events if r.kind == "error"]
        assert len([r for r in errors if "send" in str(r.detail)]) == 1

    def test_transient_send_failures_recover_via_retransmission(self):
        """A burst of failed sends must not desync the session: the 20 ms
        pump keeps retransmitting the unacked window, so once the socket
        works again the peer catches up and both replicas converge."""
        sites = run_realtime(endpoint_classes=(FlakyEndpoint, AsyncUdpEndpoint))
        flaky = sites[0].endpoint
        assert flaky.failed > 0
        assert sites[0].runtime.metrics.send_errors.value == flaky.failed
        traces = [site.runtime.trace for site in sites]
        assert ConsistencyChecker().verify_traces(traces) == 90
