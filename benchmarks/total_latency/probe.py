"""Host-speed probe and the probe-scaled clock every timing goes through.

The sandbox this benchmark runs in is a shared host whose speed changes
from minute to minute: identical repetitions of one job take 0.8-1.6 s
with CPU time equal to wall time, so the machine gets slower, not
busier.  A plain wall-clock median follows whichever state the host was
in.  :func:`probe` is a fixed piece of pure-Python work (dict and integer
arithmetic, nothing of ``repro``) that takes :data:`REF_S` seconds on the
undisturbed reference box; a :class:`Timeline` runs it around every timed
interval and reports ``wall * REF_S / mean(bracketing probes)`` — the
time the interval would have taken at reference speed.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List, Sequence, Tuple

#: The probe's duration on the undisturbed reference box (2 CPUs,
#: CPython 3.11): the fastest decile of the readings of a quiet six
#: minutes (median 8.9-9.0 ms).  A constant, so that every result is
#: scaled to one fixed speed.
REF_S = 0.0088

_ITERATIONS = 40_000


def probe() -> float:
    """Run the fixed work once; return how long it took, in seconds."""
    start = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = (i * 2654435761) & 1023
        acc = (acc + table.get(key, 0) + i) & 0xFFFFFFFF
        table[key] = acc
    return perf_counter() - start


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, the definition ``repro.obs`` uses."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (0 below three values)."""
    if len(values) < 3:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


class Timeline:
    """The run's probe readings, and intervals scaled by them.

    ``tick()`` runs the probe while no timed work goes on (the calling
    thread is the one that does it, or the others are parked), so the
    reading's own duration is cut out of any interval that contains it.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._seconds: List[float] = []

    def tick(self) -> Tuple[float, float]:
        start = perf_counter()
        seconds = probe()
        end = perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._seconds.append(seconds)
        return start, end

    @property
    def last_end(self) -> float:
        return self._ends[-1] if self._ends else 0.0

    def _pieces(self, start: float, end: float):
        """Cut ``[start, end]`` at the probes inside it; yield each
        piece's wall time with the two readings that bracket it."""
        if not self._seconds:
            raise RuntimeError("no probe reading taken yet")
        first = bisect_left(self._starts, start)    # first probe inside
        last = bisect_right(self._ends, end)        # one past the last
        before = max(first - 1, 0)
        after = min(max(last, first), len(self._seconds) - 1)
        cursor, reading = start, self._seconds[before]
        for index in range(first, max(last, first)):
            yield self._starts[index] - cursor, reading, self._seconds[index]
            cursor, reading = self._ends[index], self._seconds[index]
        yield end - cursor, reading, self._seconds[after]

    def raw(self, start: float, end: float) -> float:
        """Wall time of the interval, probes inside it cut out."""
        return sum(wall for wall, _, _ in self._pieces(start, end))

    def scaled(self, start: float, end: float) -> float:
        """The interval at reference speed (see the module docstring)."""
        return sum(wall * REF_S * 2.0 / (left + right)
                   for wall, left, right in self._pieces(start, end))

    def speed(self) -> float:
        """Host speed over the run: 1.0 is the reference box."""
        return REF_S / statistics.median(self._seconds)

    def speed_spread(self) -> float:
        return spread(self._seconds)
