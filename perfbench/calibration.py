"""Host-speed calibration: a fixed chunk of work timed next to the program.

On a shared host every program runs up to a fifth slower or faster for
minutes at a time, which swamps a change to the package. The benchmark
times a fixed calibration chunk (plain Python loops and a small dense
product, a few milliseconds, code the package cannot change) next to the
program and reports program time times ``CAL_REF_S`` over the median chunk
time: seconds on a host that runs the chunk in ``CAL_REF_S``. A change to
the package moves that figure in proportion; a change of host speed moves
the chunk as well and cancels out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Wall time between calibration samples while a program call runs.
SAMPLE_EVERY_S = 0.1
# Median time of one chunk on the reference host (2-CPU sandbox, Python
# 3.11); it turns chunk units back into seconds.
CAL_REF_S = 0.003

_MATRIX = np.random.default_rng(0).random((120, 120))


def chunk() -> float:
    """Wall time of one calibration chunk."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    table: dict = {}
    for i in range(500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    for _ in range(6):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


def chunk_times(count: int) -> list[float]:
    return [chunk() for _ in range(count)]


class HostSpeed:
    """Calibration chunks run from ``SIGALRM`` while a program call is active.

    Used as a context manager around each call. The interval timer is armed
    on entry and disarmed on exit; the time left until the next sample
    carries over to the next call, so samples fall evenly over the program's
    time. ``stolen`` is the total time the chunks took, to be left out of
    the calls' times.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.stolen = 0.0
        self._left = SAMPLE_EVERY_S
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.chunks.append(chunk())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._left, SAMPLE_EVERY_S)

    def __exit__(self, *exc) -> None:
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._left = left or SAMPLE_EVERY_S
