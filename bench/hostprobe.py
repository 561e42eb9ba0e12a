"""A probe of the host's current speed, for scaling wall times.

On a shared host the same run can take twice as long from one minute to
the next, as other tenants load the cores. While a HostProbe is active, a
timer interrupts the process every INTERVAL seconds and runs a fixed
kernel of the same kind of work as the workloads (column rotations on a
small matrix: one small numpy call after another; then a loop of plain
Python arithmetic), timing it. An
operation timed with `timed()` reports its wall time (the probe's own
time taken out) and that time scaled to a host on which the kernel takes
REFERENCE_S:

    scaled = wall * mean(REFERENCE_S / kernel_time for each sample in it)

so a host that runs at half speed for part of an operation is charged
only for the work, not for the wait. The kernel touches only its own
arrays: it never calls the package and cannot change a run's results,
and a faster package does not make it faster.

Kernels were chosen by sampling candidates side by side with repeated
runs of each workload, and in fresh processes next to repeated calls of
the Jacobi eigensolver. A 64x256 matmul and a 4 MB sum tracked the runs'
speed worst. The rotations alone took the spread of the runs from 12-20%
of the median to 3-7%; with the Python loop added, the spread across
processes fell further, from 6% to 4%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds between samples; each sample takes 0.2-0.4 ms on a 2-vCPU
# Xeon host, so the probe costs 1-2% of a run.
INTERVAL = 0.02
# Kernel time of the reference host, a round figure near its median on
# that host.
REFERENCE_S = 2.5e-4


class HostProbe:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        # Seconds spent inside the probe, to take out of timed operations.
        self.spent = 0.0
        self._square = np.random.default_rng(0).standard_normal((64, 64))
        self._previous = None

    def kernel(self) -> None:
        a = self._square
        c, s = 0.8, 0.6  # an exact rotation, so the values stay bounded
        for p in range(12):
            ap = a[:, p].copy()
            aq = a[:, p + 1].copy()
            a[:, p] = c * ap - s * aq
            a[:, p + 1] = s * ap + c * aq
            float(np.sqrt(abs(a[p, p + 1]) + 1.0))
        total = 0
        for i in range(1500):
            total += i * i % 7

    def sample(self, *_) -> None:
        start = self.clock()
        self.kernel()
        dt = self.clock() - start
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(fn(*args), wall seconds, wall seconds scaled to the reference
        host) for one call, the probe's own time taken out of both."""
        first, spent = len(self.samples), self.spent
        start = self.clock()
        out = fn(*args)
        wall = self.clock() - start - (self.spent - spent)
        if len(self.samples) == first:  # shorter than INTERVAL
            self.sample()
        return out, wall, wall * scale(self.samples[first:])

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0


def scale(samples: list[float]) -> float:
    """Mean speed of the host over the samples, relative to the reference
    host: the work an operation did per second of wall time."""
    return statistics.fmean(REFERENCE_S / t for t in samples)
