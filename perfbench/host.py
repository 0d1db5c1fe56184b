"""Host speed, from a fixed kernel timed between the workload's frames.

The benchmark shares a few cores of a host with other tenants.  On such
a host the speed of a core flips between a fast and a slow state (nearly 2x
apart) every few tens of ms, and the share of time spent slow drifts
over minutes, so a wall time alone measures the neighbours as much as
the program.  The kernel below runs no code of the program: a mix of
pure-Python object work and small NumPy operations, like the layers it
is timed between.  Between units of work it is run for ``SHARE`` of the
time since the last tick.  The trimmed mean of the ``NEAREST`` kernel
timings nearest in time to a frame (a few tenths of a second of the
run) tracks the host's speed around that frame, and each frame time is
reported at the reference speed, at which one kernel run takes
``REFERENCE_MS``::

    time at reference speed = wall time * REFERENCE_MS / local kernel mean

(and a rate is divided by the same factor).  A change to the program
moves both its wall times and these by the same share, because the
kernel does not change; a slow or busy host moves the wall times only.
The raw wall times are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel time, in ms, that defines the reference host speed.  The
#: number is arbitrary (near the kernel's mean on a 2-vCPU shared host);
#: it is fixed so that every run reports on the same scale.
REFERENCE_MS = 2.0

#: Share of a run's time spent timing the kernel.
SHARE = 0.1

#: Share of the fastest and of the slowest kernel timings left out of
#: a mean (preemptions, collector passes).
TRIM = 0.05

#: Kernel timings that give the host speed around one moment.  Across
#: seeds, 20 gave steadier frame times than 5, 50, 100 or a whole run's.
NEAREST = 20

_GRID = np.arange(32 * 32, dtype=np.float64).reshape(32, 32) % 7


def kernel() -> float:
    """A fixed amount of mixed work; returns a checksum."""
    counts: dict[tuple[int, int], float] = {}
    rows = []
    for i in range(2400):
        key = (i % 61, i % 53)
        counts[key] = counts.get(key, 0.0) + i * 0.5
        if i % 8 == 0:
            rows.append((key, i, float(i) ** 0.5))
    rows.sort(key=lambda row: row[2], reverse=True)
    grid = _GRID
    total = 0
    for _ in range(40):
        grid = np.roll(grid, 1, axis=1) * 0.5 + 1.0
        total += int(np.count_nonzero(grid > 3.0))
    return sum(counts.values()) + len(rows) + total


def trimmed_mean(values) -> float:
    """Mean with the ``TRIM`` tails on each side left out."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def time_kernel() -> float:
    """One kernel run, in ms."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Kernel timings spread over a run, stamped with when they ended."""

    def __init__(self):
        kernel()  # warm-up, untimed
        self.samples_ms: list[float] = []
        self.ends: list[float] = []
        self.owed = 0.0
        self.last = time.perf_counter()

    def _time(self) -> float:
        ms = time_kernel()
        self.samples_ms.append(ms)
        self.ends.append(time.perf_counter())
        return ms

    def tick(self, tracer=None) -> None:
        """Time the kernel until it has run for ``SHARE`` of the time
        spent outside it since the clock was made."""
        now = time.perf_counter()
        self.owed += SHARE * (now - self.last)
        while self.owed > 0:
            self.owed -= self._time() / 1e3
        self.last = time.perf_counter()

    def sample(self, seconds: float) -> None:
        """Time the kernel back to back for ``seconds``."""
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            self._time()

    @property
    def kernel_ms(self) -> float:
        """Trimmed mean kernel time over the whole run."""
        return trimmed_mean(self.samples_ms)

    def scale_at(self, moment: float) -> float:
        """Factor that takes a time ending at ``moment`` (a
        ``perf_counter`` value) to the reference speed."""
        index = bisect.bisect(self.ends, moment)
        start = max(0, min(index - NEAREST // 2, len(self.ends) - NEAREST))
        return REFERENCE_MS / trimmed_mean(self.samples_ms[start : start + NEAREST])
