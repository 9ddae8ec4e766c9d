"""Section timing normalised to the machine's nominal speed.

On a shared 2-vCPU Intel Xeon VM, the speed of one core swings between 1.0x
and about 1.7x of its best for phases lasting seconds to tens of seconds,
whatever the process does: a fixed pure-Python loop timed back to back for
40 s showed both extremes several times, and 5-sample medians of fixed
program sections timed over 2 minutes spread by 35-54% (quartile distance
over median).  Raw wall times of a run therefore depend on the phases it
landed in.

Two fixed kernels measure the core's current speed: a loop of small NumPy
calls and a pure-Python loop.  The slowdown of each against its nominal
duration is combined by geometric mean, because contention slows the two
kinds of work by different amounts and the program mixes both; normalised
by this combined slowdown, the same sections spread by 5-12%.  The kernels
run before and after each timed section and, scaled down, every
``SAMPLE_INTERVAL_S`` during it (from a SIGALRM handler whose own time is
taken out of the section).  A section's normalised time is its measured
seconds divided by the mean slowdown of those samples: the time it would
have taken with the core at its unloaded speed.  Figures normalised this
way compare two versions of the program on one machine; they are not
comparable across machines.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Minimum durations of the two kernels at full size, over 1307 back-to-back
# runs of each on an Intel Xeon 2-vCPU VM (Python 3.11, NumPy 2.4.6).
NOMINAL_NUMPY_S = 0.00463
NOMINAL_PYTHON_S = 0.00337
NUMPY_REPS = 2500
PYTHON_REPS = 60000
SAMPLE_FRACTION = 5
SAMPLE_INTERVAL_S = 0.1
_MATRIX = (np.arange(64, dtype=np.float64).reshape(8, 8) % 7 - 3) / 10.0


def _numpy_kernel(reps: int) -> float:
    v = np.ones(8)
    t0 = time.perf_counter()
    for _ in range(reps):
        v = np.tanh(_MATRIX @ v) + 0.5
    return time.perf_counter() - t0


def _python_kernel(reps: int) -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(reps):
        s += i * i
    return time.perf_counter() - t0


def slowdown(fraction: int = 1) -> float:
    """Current slowdown of the core against its nominal speed (>= ~1)."""
    numpy_s = _numpy_kernel(NUMPY_REPS // fraction) * fraction
    python_s = _python_kernel(PYTHON_REPS // fraction) * fraction
    return math.sqrt(numpy_s / NOMINAL_NUMPY_S * python_s / NOMINAL_PYTHON_S)


class Clock:
    """Times consecutive sections of one round in normalised seconds."""

    def __init__(self):
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self._last = slowdown()
        self._samples: list[float] = []
        self._sampling_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(slowdown(SAMPLE_FRACTION))
        self._sampling_s += time.perf_counter() - t0

    def restart(self) -> None:
        """Measure the speed afresh, after work that is not timed."""
        self._last = slowdown()

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return its result and its normalised seconds."""
        self._samples = []
        self._sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = wall - self._sampling_s
        after = slowdown()
        normalised = raw / statistics.fmean([self._last, after] + self._samples)
        self._last = after
        self.raw_s += raw
        self.normalised_s += normalised
        return result, normalised
