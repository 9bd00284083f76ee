"""Machine-speed sampling, to take the host's drift out of untraced timings.

On a shared host the speed of one vCPU drifts: a fixed piece of code can
take 20-40% longer for minutes at a time, and switch within seconds, as
other tenants load the machine. A median over the passes of one run cannot
remove a slowdown that lasts the whole run, and a reference kernel timed
between stages misses the switches inside them.

`SpeedSampler` samples the speed while the program runs instead. A
SIGALRM interval timer interrupts the stage every `PERIOD_S` and times two
fixed reference kernels in the handler: an interpreter loop and a chain of
4x4 matrix products, about 1 ms together, the two kinds of work the pipeline
is made of. The time spent in the handler is taken out of the stage's time.
Each stretch of program time between two samples is divided by the slowdown
measured there (the kernels' times over their reference times; the median
of the last three samples, so that one interrupted kernel does not count),
which gives the stage's time at the reference speed. The kernels do not depend on
the program, so a change to the program moves the normalised time as much
as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

PERIOD_S = 0.05
# the kernels' times at the reference speed: medians over ~10 minutes of
# samples taken during toy-grasp passes on a 2-vCPU Intel Xeon VM, Python
# 3.11; they fix the unit of normalised times, not their ratios
REF_LOOP_S = 0.00066
REF_SMALL_S = 0.00040
_A4 = np.eye(4) + 0.01


def _loop() -> float:
    x = 0.0
    for k in range(5000):
        x += (k % 7) * 0.5
    return x


def _small() -> np.ndarray:
    m = np.eye(4)
    for _ in range(150):
        m = m @ _A4
    return m


class SpeedSampler:
    """`with sampler:` around a stage; then read `spent_s` and `normalize`."""

    def __init__(self):
        self.slowdowns: list[float] = []    # every sample, for the report
        self._recent: deque[float] = deque(maxlen=3)
        self._reset()
        self._sample(None, None)            # a speed for the first stretch

    def _reset(self) -> None:
        self.spent_s = 0.0                  # inside the handler
        self._scaled = 0.0                  # program time / slowdown
        self._program = 0.0                 # program time between samples
        self._mark = time.perf_counter()

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        _small()
        t2 = time.perf_counter()
        slowdown = ((t1 - t0) / REF_LOOP_S + (t2 - t1) / REF_SMALL_S) / 2
        self.slowdowns.append(slowdown)
        self._recent.append(slowdown)
        dt = t0 - self._mark
        self._program += dt
        self._scaled += dt / statistics.median(self._recent)
        self._mark = time.perf_counter()
        self.spent_s += self._mark - t0

    def __enter__(self) -> "SpeedSampler":
        self._reset()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # the stretch after the last sample runs at the last speed measured
        dt = time.perf_counter() - self._mark
        self._program += dt
        self._scaled += dt / statistics.median(self._recent)

    def normalize(self, seconds: float) -> float:
        """`seconds` of program time inside the block at the reference speed."""
        if self._program <= 0:
            return seconds / statistics.median(self._recent)
        return seconds * self._scaled / self._program

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdowns) if self.slowdowns else 1.0
