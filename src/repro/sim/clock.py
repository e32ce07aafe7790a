"""Time sources.

All protocol code asks a :class:`Clock` for the current time instead of
calling :func:`time.monotonic` directly.  Under the discrete-event driver the
clock is advanced by the event loop; under the real-UDP driver it wraps the
monotonic OS clock.  Times are floats in **seconds**, matching the paper's
``get_current_time()`` primitive.
"""

from __future__ import annotations

import time as _time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Abstract time source used by the sync module and the drivers."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""


class SimClock(Clock):
    """Virtual clock advanced by the discrete-event loop.

    Only the event loop should call :meth:`advance`; protocol code treats the
    clock as read-only.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, to: float) -> None:
        """Move the clock forward to ``to``.

        Raises :class:`ValueError` if ``to`` lies in the past: a discrete
        event simulator must never travel backwards, and catching that here
        localizes scheduler bugs.
        """
        if to < self._now:
            raise ValueError(
                f"clock cannot go backwards: now={self._now!r}, requested={to!r}"
            )
        self._now = to


#: Shared origin for every :class:`WallClock` in the process, anchored by
#: the first construction.  Without it each clock would carry its own
#: creation-time origin, and co-hosted sites would emit EventTrace records
#: and timeline stamps on mutually skewed timebases.
_PROCESS_EPOCH: "float | None" = None


class WallClock(Clock):
    """Monotonic wall clock for code running outside the simulator.

    All instances read one process-wide timebase: cross-site latency
    attribution compares timestamps taken by *different* sites, and for
    sites sharing a process the comparison must be exact rather than
    "exact up to whenever each clock object happened to be built".
    Separate processes still need the PING/PONG clock-offset estimator.
    """

    def __init__(self) -> None:
        global _PROCESS_EPOCH
        if _PROCESS_EPOCH is None:
            _PROCESS_EPOCH = _time.monotonic()
        self._origin = _PROCESS_EPOCH

    def now(self) -> float:
        return _time.monotonic() - self._origin

    def sleep(self, duration: float) -> None:
        """Block the calling thread for ``duration`` seconds (if positive)."""
        if duration > 0:
            _time.sleep(duration)
