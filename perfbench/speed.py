"""The machine's current speed, from a fixed loop that does not touch stickybm.

On a shared virtual machine the same op on the same input can take twice as
long from one minute to the next.  Each virtual CPU switches on its own between
a fast and a slow spell, seconds apart, so even a median over a 30-second run
follows the host's load.  The benchmark therefore reports times at a fixed
reference speed:

    reference time = wall time * REFERENCE_UNIT_S / unit time

where the unit time is the mean wall time of one unit of a fixed loop, timed
just before the op, just after it, and every PROBE_PERIOD_S during it on the
op's own main thread (``Probe``).  The loop mixes scalar ``math`` calls with
small numpy reductions, as the package's quadrature and samplers do.  It uses
no stickybm code, so a change to the program moves reference times exactly as
it moves wall times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Time of one unit at the reference speed: about its median on a 2-CPU Intel
# Xeon virtual machine.  A constant, so that it only sets the scale.
REFERENCE_UNIT_S = 0.001
UNITS_PER_CALIBRATION = 20
PROBE_PERIOD_S = 0.05

_GRID = np.linspace(0.0, 1.0, 257)


def _unit() -> float:
    x = 0.0
    for i in range(1, 3000):
        x += math.sqrt(i) * math.exp(-1e-4 * i)
    for _ in range(45):
        x += float(np.sum(np.exp(-_GRID * _GRID)))
    return x


def calibrate(reps: int = 5) -> float:
    """The unit time, from the median of ``reps`` timings of a block of units."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_CALIBRATION):
            _unit()
        times.append((time.perf_counter() - t0) / UNITS_PER_CALIBRATION)
    return sorted(times)[reps // 2]


class Probe:
    """Times one unit every PROBE_PERIOD_S while active, from a SIGALRM handler.

    The handler runs on the main thread, so on a single-threaded op it times
    the CPU the op is running on, at that moment.  ``samples`` holds the unit
    times; their sum is time the op did not spend on itself.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _unit()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def unit_time(before_s: float, probe_samples, after_s: float) -> float:
    """The mean unit time over the op: the calibrations around it and the probe samples.

    Samples over twice the median are left out: a unit that took four or five
    times as long as its neighbours was interrupted, not slowed by the CPU.
    """
    samples = [before_s, after_s, *probe_samples]
    cap = 2.0 * statistics.median(samples)
    return statistics.fmean(s for s in samples if s <= cap)


def to_reference(seconds: float, unit_s: float) -> float:
    """``seconds`` measured while a unit took ``unit_s``, at the reference speed."""
    return seconds * REFERENCE_UNIT_S / unit_s
