"""Discrete-event driver: runs the engine it is handed on the simulator.

The Algorithm 1 orchestration itself — start phase, send/ping pumps, the
frame loop and the linger phase — lives in :mod:`repro.core.engine`, whose
one :class:`~repro.core.engine.SiteEngine` runs every consistency mode and
join kind as state.  This module only adapts an engine to the
discrete-event world: one simulator process per site that sleeps until the
engine's next timer deadline or an incoming datagram, whichever is first.
The asyncio driver (:class:`repro.core.aio.AioSite`) is the same shell
over real UDP, with the same contract: a driver is built from an engine.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.driver import SiteDriver
from repro.core.engine import SiteEngine
from repro.net.simnet import SimNetwork, SimSocket
from repro.sim.eventloop import EventLoop
from repro.sim.process import Process, Sleep, WaitMessage, spawn

__all__ = ["DistributedVM"]


class DistributedVM(SiteDriver):
    """Runs one engine to completion on the event loop.

    ``start_delay`` postpones the engine's start (a site booting late, a
    late joiner waking, a crashed site restarting).  Attribute reads the
    driver does not answer itself fall through to the engine, so
    ``vm.rollback_stats`` means ``vm.engine.rollback_stats``.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: SimNetwork,
        engine: SiteEngine,
        start_delay: float = 0.0,
    ) -> None:
        super().__init__(engine)
        self.loop = loop
        self.start_delay = start_delay
        self.socket: SimSocket = network.socket(
            self.runtime.address_of[self.runtime.site_no]
        )
        self.process: Optional[Process] = None

    def __getattr__(self, name: str):
        if name == "engine":  # not yet set: do not recurse
            raise AttributeError(name)
        return getattr(self.engine, name)

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn this site's process on the event loop."""
        name = f"site{self.runtime.site_no}"
        self.process = spawn(self.loop, self._main(), name=name)
        return self.process

    def _main(self) -> Generator:
        if self.start_delay > 0:
            yield Sleep(self.start_delay)
        engine = self.engine
        clock = self.loop.clock
        effects = engine.start(clock.now())
        while self._apply(effects):
            deadline = engine.next_deadline()
            timeout = 0.05
            if deadline is not None:
                timeout = max(0.0, deadline - clock.now())
            envelope = yield WaitMessage(self.socket.mailbox, timeout=timeout)
            pending = [] if envelope is None else [envelope.payload]
            pending.extend(self.socket.receive_all())
            effects = self._wake(pending, clock.now())

    def _send(self, payload: bytes, destination: str) -> None:
        self.socket.send(payload, destination)
