"""Driver-support layer shared by the simulator and asyncio drivers.

Each driver is built from an engine and owns exactly two jobs: move
received datagrams into it as :class:`~repro.core.engine.DatagramReceived`
events, and apply the effects it returns.  Both jobs are identical across
runtimes, so they live here once, in :class:`SiteDriver` — each driver
adds only its wait loop (event-loop process or coroutine) and its send
function.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.engine import (
    DatagramReceived,
    Degraded,
    Effect,
    Finished,
    PeerLost,
    Present,
    Resumed,
    Send,
    Shutdown,
    SiteEngine,
)
from repro.net.transport import Datagram


class PresentationStatus:
    """What a driver's presentation layer should currently show.

    Absorbs the liveness effects (:class:`Degraded`, :class:`PeerLost`,
    :class:`Resumed`) so every driver shares one "freeze the screen and say
    waiting-for-peer" state machine instead of re-deriving it from the
    engine's phase.
    """

    def __init__(self) -> None:
        #: Presentation should freeze and show "waiting for peer".
        self.degraded = False
        #: The session is suspended pending the peer's return.
        self.suspended = False
        #: The peer never returned; the session terminated.
        self.peer_lost = False
        self.waiting_on: tuple = ()
        self.resumes = 0
        self.degraded_episodes = 0

    def absorb(self, effect: Effect) -> None:
        kind = type(effect)
        if kind is Degraded:
            self.degraded = True
            self.waiting_on = effect.waiting_on
            self.degraded_episodes += 1
        elif kind is PeerLost:
            self.degraded = True
            self.suspended = True
            self.waiting_on = effect.waiting_on
        elif kind is Resumed:
            self.degraded = False
            self.suspended = False
            self.waiting_on = ()
            self.resumes += 1
        elif kind is Present:
            self.degraded = False
            self.waiting_on = ()

    def on_finished(self, termination: Optional[str]) -> None:
        if termination == "peer-lost":
            self.peer_lost = True

    def as_dict(self) -> dict:
        return {
            "degraded": self.degraded,
            "suspended": self.suspended,
            "peer_lost": self.peer_lost,
            "waiting_on": list(self.waiting_on),
            "resumes": self.resumes,
            "degraded_episodes": self.degraded_episodes,
        }


class SiteDriver:
    """What every driver shares: the engine it runs, the presentation
    status, the stop flag and effect application.

    A subclass supplies ``_send(payload, destination)`` and a wait loop
    that starts the engine, applies each batch of effects with
    :meth:`_apply`, and on every wakeup hands the received datagrams to
    :meth:`_wake`.
    """

    def __init__(self, engine: SiteEngine) -> None:
        self.engine = engine
        self.runtime = engine.runtime
        #: True once every frame has executed.
        self.finished = False
        self.status = PresentationStatus()
        self._stop_requested = False

    def _send(self, payload: bytes, destination: str) -> None:
        raise NotImplementedError

    def request_stop(self) -> None:
        """Ask the site to wind down at its next wakeup."""
        self._stop_requested = True

    def _apply(self, effects: Iterable[Effect]) -> bool:
        """Apply one batch of engine effects; False once ``Finished`` appears.

        ``Send`` goes out through ``_send``; its payload is opaque here —
        the engine's outbox has already encoded it (possibly as a coalesced
        v2 BATCH datagram), so drivers move bytes and never touch the
        codec.  The liveness effects update ``status``.  ``SetTimer`` is
        deliberately ignored — the drivers pull ``engine.next_deadline()``
        instead — and ``Present`` / ``Stall`` are presentation-layer
        notifications these headless drivers have no screen for;
        ``ServeState`` is for the harness, which hooks
        ``engine.on_snapshot_served``.
        """
        running = True
        send = self._send
        absorb = self.status.absorb
        for effect in effects:
            absorb(effect)
            if isinstance(effect, Send):
                send(effect.payload, effect.destination)
            elif isinstance(effect, Finished):
                running = False
        if not running:
            self.status.on_finished(self.engine.termination)
        if self.engine.frames_complete:
            self.finished = True
        return running

    def _wake(self, datagrams: Iterable[Datagram], now: float) -> List[Effect]:
        """One wakeup: shut the engine down if a stop was requested, else
        feed it the received datagrams and poll it once.

        The trailing poll matters even for an empty batch: the driver
        usually woke up because a timer came due.
        """
        engine = self.engine
        if self._stop_requested and not engine.done:
            return engine.handle(Shutdown(now))
        effects: List[Effect] = []
        for datagram in datagrams:
            effects.extend(
                engine.handle(
                    DatagramReceived(datagram.payload, datagram.arrived_at, now)
                )
            )
        effects.extend(engine.poll(now))
        return effects

    def snapshot(self) -> dict:
        """This site's telemetry registries plus liveness as one dict."""
        snap = self.engine.snapshot()
        snap["finished"] = self.finished
        snap["presentation"] = self.status.as_dict()
        return snap
