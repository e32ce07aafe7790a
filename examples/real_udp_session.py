#!/usr/bin/env python
"""Two sites over *real* UDP sockets on localhost, in wall-clock time.

This is the deployment shape of the paper's system: the very same sans-IO
engine that the simulator drives is here handed to the asyncio driver,
bound to OS sockets and the event loop's monotonic clock.  Two coroutines
on one event loop stand in for the two PCs.

    python examples/real_udp_session.py [--frames 300] [--fps 60]
"""

import argparse
import asyncio

from repro import (
    ConsistencyChecker,
    PadSource,
    RandomSource,
    SitePeer,
    SiteRuntime,
    SyncConfig,
    InputAssignment,
    create_game,
)
from repro.core.aio import AioSite
from repro.core.engine import SiteEngine
from repro.net.udp import AsyncUdpEndpoint


async def run_sites(frames: int, fps: float):
    config = SyncConfig(cfps=fps)
    assignment = InputAssignment.standard(2)

    endpoints = [await AsyncUdpEndpoint.open() for __ in range(2)]
    peers = [SitePeer(i, endpoints[i].address) for i in range(2)]
    print(f"site 0 on {endpoints[0].address}, site 1 on {endpoints[1].address}")

    sites = []
    for site in range(2):
        runtime = SiteRuntime(
            config=config,
            site_no=site,
            assignment=assignment,
            machine=create_game("shooter"),
            source=PadSource(RandomSource(seed=100 + site, toggle_p=0.2), player=site),
            peers=peers,
            game_id="shooter",
        )
        # A driver is built from an engine: hand the engine a speculative
        # machine (spec_machine=create_game("shooter"), optionally with
        # adaptive=True) to run rollback or adaptive consistency over real
        # UDP instead.
        engine = SiteEngine(runtime, frames, linger=2.0)
        sites.append(AioSite(engine, endpoints[site]))

    print(f"running {frames} frames at {fps} FPS over real UDP ...")
    try:
        await asyncio.gather(*(site.run() for site in sites))
    finally:
        for endpoint in endpoints:
            endpoint.close()
    return sites


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--fps", type=float, default=60.0)
    args = parser.parse_args()

    sites = asyncio.run(run_sites(args.frames, args.fps))

    traces = [site.runtime.trace for site in sites]
    verified = ConsistencyChecker().verify_traces(traces)
    print(f"converged: {verified} frames bit-identical across both sites")
    for site in sites:
        times = site.runtime.trace.frame_times()
        mean_ms = sum(times) / len(times) * 1000
        print(
            f"  site {site.runtime.site_no}: mean frame time {mean_ms:.2f} ms "
            f"(target {1000 / args.fps:.2f} ms), "
            f"state 0x{site.runtime.machine.checksum():08x}"
        )
    print("\nfinal screen (site 0):")
    print(sites[0].runtime.machine.render_text())


if __name__ == "__main__":
    main()
