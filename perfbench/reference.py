"""A fixed reference load that tracks how fast the CPU runs interpreter-bound code.

On a shared host the speed of a vCPU drifts: the same pure-Python loop can
take 1.5x longer, in stretches from under a second to minutes, often longer
than one run.  The reference load is a fixed mix of the two kinds of work
that dominate the small-state workloads: bytecode in a Python loop and numpy
calls on a dozen elements.  ``Reference`` times it at every item boundary
and, from a timer signal, every ``PERIOD_S`` seconds inside an item; the
time spent in those loads is taken out of the item's latency.  An item's
time is reported as ``latency * REFERENCE_S / mean(loads)``: the time it
would take at the speed where one reference load takes ``REFERENCE_S``.

Work that is bound by memory rather than by the interpreter (the
``complete_large`` workload) need not slow by the same factor as the load,
so there the scaling can over- or under-correct.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Nominal time of one reference load; scaled times are at this speed.
REFERENCE_S = 0.005
#: Interval of the timer that samples the reference load inside an item.
PERIOD_S = 0.1

_A = np.linspace(0.1, 1.0, 12)
_B = _A[::-1].copy()


def reference_load() -> float:
    total = 0
    for i in range(60_000):
        total += i
    for _ in range(375):
        c = np.minimum(_A, _B)
        c *= c
        total += c.sum()
    return total


class Reference:
    """Samples of the reference load's time, taken at boundaries and on a timer.

    ``stolen_s`` is the total time spent in samples, so that a caller can take
    the samples that fell inside an interval out of its length.
    """

    def __init__(self):
        self.samples: list = []
        self.stolen_s = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_load()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.stolen_s += time.perf_counter() - t0
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(times: list, references: list) -> list:
    """Scale each time by the mean of the reference loads timed around and inside it."""
    return [t * REFERENCE_S / statistics.fmean(refs) for t, refs in zip(times, references)]


def scale_one(seconds: float, references: list) -> float:
    return seconds * REFERENCE_S / statistics.median(references)
