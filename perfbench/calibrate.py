"""A fixed pure-Python loop, timed in the same run as the workload.

The bench host's speed drifts by ±20% over seconds (other tenants share
its cores), and a slow spell stretches every host-time figure alike.  The
benchmark therefore times this loop, which never changes and touches
none of the program's code, every few frame slots during a measured
session, and reports host times scaled to a host on which one loop takes
:data:`REFERENCE_US` microseconds:

    scaled = measured * REFERENCE_US / median(loop times around it)

Session totals use the median over the whole session; a frame slot's
cost uses the few loop samples taken just before and after it, which
also cancels slow spells shorter than a session.

A change that makes the program faster moves the scaled figure exactly as
much as the raw one; a slow spell of the host moves both the program and
the loop and cancels out.  The raw figures and the loop's median are
printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Loop time (µs) of the reference host the scaled figures refer to.
REFERENCE_US = 200.0
#: Take one loop sample every this many frame slots.
EVERY_SLOTS = 15
ROUNDS = 1000


def calibration_loop(rounds: int = ROUNDS) -> int:
    table = [(i * 7919) & 0xFFFF for i in range(256)]
    data = list(range(256))
    acc = 0
    for n in range(rounds):
        x = data[n & 255]
        acc = (acc + table[(x ^ acc) & 255]) & 0xFFFFFFFF
        data[n & 255] = acc & 0xFF
    return acc


class Calibrator:
    """Loop samples of one session, with the time they took from it."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def sample(self) -> None:
        cpu = time.process_time()
        begin = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        self.wall_s += elapsed
        self.cpu_s += time.process_time() - cpu


def scale(samples: List[float]) -> float:
    """Factor that maps host times measured over ``samples`` onto the
    reference host."""
    return REFERENCE_US * 1e-6 / statistics.median(samples)


def scale_slots(costs: List[float], marks: List[int], samples: List[float],
                reach: int = 3) -> List[float]:
    """Scale each slot cost by the loop samples around it.

    ``marks[i]`` is how many loop samples had been taken when slot ``i``
    was measured; the slot is scaled by the median of up to ``reach``
    samples on each side of that point.
    """
    factors = [scale(samples[max(0, mark - reach):mark + reach])
               for mark in range(len(samples) + 1)]
    return [cost * factors[mark] for cost, mark in zip(costs, marks)]
