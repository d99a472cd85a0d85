"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared virtual machines whose CPU speed drifts by
tens of percent for seconds to minutes at a time, in the process's own
CPU time as much as in wall time, so a run that falls in a slow stretch
reads slow on every call.  To take that drift out, a fixed pure-Python
kernel (integer arithmetic, a dictionary, a few ``Fraction`` sums: the
interpreter work the library does, none of its code) is timed right
before and right after every timed call, and the call's time is scaled
to a nominal machine on which the kernel takes ``NOMINAL_S``::

    nominal seconds = seconds * NOMINAL_S / mean(kernel before, kernel after)

A slower or faster library still reads slower or faster by the same
share, because the kernel does not change with the library.  Per-layer
(traced) times are not scaled.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Kernel time on the nominal machine; about its time on a 2-core VM with
# Python 3.11, so nominal seconds stay close to the wall seconds there.
NOMINAL_S = 0.0015
_SAMPLES = 3


def _kernel() -> int:
    table: dict[int, int] = {}
    total = Fraction(0)
    x = 1
    for i in range(1500):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        key = x >> 54
        table[key] = table.get(key, 0) + x
        if i % 8 == 0:
            total += Fraction(x & 1023, i | 1)
    return len(table) + total.denominator


def sample() -> float:
    """Seconds the kernel takes now: median of a few runs, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_SAMPLES):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Log:
    """Kernel samples taken over a stretch of work, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def take(self) -> float:
        start = perf_counter()
        seconds = sample()
        self.spent_s += perf_counter() - start
        self.samples.append(seconds)
        return seconds


def nominal(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel samples, at nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)
