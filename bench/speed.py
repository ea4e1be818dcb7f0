"""Host-speed correction for measured times.

On a shared machine the speed one process gets drifts by 10-30% within
minutes, through load the process cannot see.  A fixed pure-Python
kernel (integer products, gcd normalisation and small objects, the mix of
the exact field), timed every 50 ms from a SIGALRM handler while the
measured work runs, samples that speed at the same moments.  The mean
kernel time, which grows with the share of time the process is slowed as
the work's own time does, scales a measured time to a host on which the
kernel takes ``KERNEL_REF_S``.
"""

from __future__ import annotations

import math
import signal
import time

KERNEL_REF_S = 5e-4
INTERVAL_S = 0.05


class _Value:
    __slots__ = ("p", "q", "r")


def _make(p, q, r):
    g = math.gcd(math.gcd(p, q), r)
    if g > 1:
        p, q, r = p // g, q // g, r // g
    v = _Value()
    v.p, v.q, v.r = p, q, r
    return v


def kernel():
    x = _make(3 * 10**12 + 1, 10**12 + 7, 2 * 10**6)
    y = _make(5, -2, 7)
    acc = 0
    for _ in range(300):
        z = _make(x.p * y.p + 3 * x.q * y.q, x.p * y.q + x.q * y.p, x.r * y.r)
        x = _make(z.p % 10**15 + 1, z.q % 10**15, z.r % 10**9 + 1)
        acc += x.p & 1
    return acc


def profiler_slowdown(pairs: int = 100) -> float:
    """How much slower the kernel runs under cProfile than without it.

    Kernel ticks inside a profiled block run at the profiled speed; this
    factor turns them back into a measure of the host's speed.  On and off
    runs alternate, so that a drift of the host cancels out.
    """
    import cProfile  # not at module level: set-up probes import this module

    profile = cProfile.Profile(builtins=False)
    on = off = 0.0
    for _ in range(pairs):
        t0 = time.perf_counter()
        kernel()
        off += time.perf_counter() - t0
        profile.enable()
        t0 = time.perf_counter()
        kernel()
        on += time.perf_counter() - t0
        profile.disable()
    return on / off


class SpeedProbe:
    """Times the kernel every ``interval`` seconds while the block runs."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy_s(self) -> float:
        """Time spent in the kernel itself, to take out of the measured time."""
        return sum(self.samples)

    def scale(self) -> float:
        """Factor from this host's time to the reference host's."""
        samples = self.samples
        if not samples:  # a block shorter than one interval
            t0 = time.perf_counter()
            kernel()
            samples = [time.perf_counter() - t0]
        return KERNEL_REF_S * len(samples) / sum(samples)
