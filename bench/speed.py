"""A speed probe that samples how fast this process's core runs, while it runs.

The benchmark's cores are shared: on the reference machine a fixed loop ran
1.3-1.6x slower than its fastest for seconds at a time, and the slow phases
came and went within one run.  Wall times alone therefore measure the
neighbours as much as the program.  The probe times fixed pure-Python
kernels every ``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler in the
main thread, so the samples are taken during the operations themselves.
``scaled(kernel, t0, t1)`` gives the wall time of an interval without the
probe's own time, rescaled to the speed at which the kernel takes its
reference time:

    scaled = (wall - probe time) * reference kernel time / mean kernel time

Contention slows different kinds of work by different amounts, so a time is
scaled by the kernel whose slowdown follows that work's: Fraction sums for
exact classification, small-int arithmetic for everything else (imports,
set-up and the numerical workloads).  The kernels share no code with
spherecurv, so no change to the program can move them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
MIN_SAMPLES = 12  # an interval with fewer samples borrows its neighbours'


def _int_kernel():
    """Interpreter arithmetic on small ints: tracks the numerical workloads."""
    s = 0
    for i in range(12_000):
        s += i * i % 7
    return s


def _fraction_kernel():
    """Sums of Fractions with growing denominators: tracks exact classification."""
    for _ in range(3):
        s = Fraction(0)
        for i in range(1, 60):
            s += Fraction(i, i + 7)
    return s


# name -> (kernel, its time at full speed on the reference machine, a 2-vCPU
# VM with Python 3.11.7: about its fastest sample).  Only ratios between runs
# matter; the constant keeps the scaled figures in seconds.
KERNELS = {
    "int": (_int_kernel, 0.0008),
    "fraction": (_fraction_kernel, 0.0004),
}


class SpeedProbe:
    """Times every kernel of KERNELS once per tick; one sample is one tick."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.times = {name: [] for name in KERNELS}  # each kernel's wall time per sample
        self.busy = [0.0]  # cumulative probe time after each sample
        self._running = False
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:  # a tick that lands inside a slow sample is skipped
            return
        self._sampling = True
        t_start = t0 = time.perf_counter()
        for name, (kernel, _) in KERNELS.items():
            kernel()
            t1 = time.perf_counter()
            self.times[name].append(t1 - t0)
            t0 = t1
        self.starts.append(t_start)
        self.busy.append(self.busy[-1] + (t1 - t_start))
        self._sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def busy_between(self, t0, t1):
        """Probe time inside [t0, t1] (a sample never straddles a clock read)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.busy[hi] - self.busy[lo]

    def slowdown(self, kernel, t0, t1):
        """Mean time of one kernel over [t0, t1] relative to its reference time.

        An interval holding fewer than MIN_SAMPLES samples is widened to the
        MIN_SAMPLES samples nearest to its middle.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        n = len(self.starts)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(self.times[kernel][lo:hi]) / KERNELS[kernel][1]

    def scaled(self, kernel, t0, t1):
        """Wall time of [t0, t1] without the probe's own, at reference speed."""
        return (t1 - t0 - self.busy_between(t0, t1)) / self.slowdown(kernel, t0, t1)
