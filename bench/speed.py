"""The host's speed, sampled on the study's own CPU while the study runs.

A shared host gives a process a speed that drifts by up to half within
minutes, in both wall and CPU time, so a study's wall time drifts with it
and ten runs of the same code spread past any useful bound.  A fixed
reference mix timed next to the study drifts the same way: while a study
runs, a thread of the study process runs one of three jobs of 0.6 to 3 ms
every ``INTERVAL_S`` -- pure-Python arithmetic, small-array NumPy calls,
sorts of a cache-resident array -- and times each in its own thread CPU
time, which excludes the time it waits for the interpreter lock.  A
study's wall time divided by ``reference_s`` (the geometric mean over the
jobs of each job's mean time) is its time in reference units, with most
of the drift divided out: the studies slow down somewhat more than the
mix does, so part of it remains.  The jobs cost about 3% of the study's
time and use no gplb code, so a change to gplb moves only the study.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.05

_SMALL = np.linspace(0.0, 1.0, 64)
_SORTED = np.random.default_rng(0).random(8192)


def _python() -> int:
    total = 0
    for i in range(30000):
        total += i * i
    return total


def _small_arrays() -> float:
    total = 0.0
    for _ in range(360):
        total += float(np.dot(_SMALL * 1.5 + 0.5, _SMALL))
    return total


def _sort() -> float:
    total = 0.0
    for _ in range(12):
        total += float(np.sort(_SORTED)[-1])
    return total


JOBS = (_python, _small_arrays, _sort)


def _timed(job) -> float:
    began = time.thread_time()
    job()
    return time.thread_time() - began


class SpeedSampler:
    """``with SpeedSampler() as speed:`` samples the reference jobs around a block."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in JOBS]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        # A block shorter than a few intervals: time each missing job once.
        for job, times in zip(JOBS, self.samples):
            if not times:
                times.append(_timed(job))
        return False

    def _run(self) -> None:
        for job, times in itertools.cycle(zip(JOBS, self.samples)):
            if self._stop.wait(INTERVAL_S):
                return
            times.append(_timed(job))

    def reference_s(self) -> float:
        """Geometric mean over the jobs of each job's mean thread CPU time."""
        means = [statistics.fmean(times) for times in self.samples]
        return math.exp(statistics.fmean(math.log(mean) for mean in means))
