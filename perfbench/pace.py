"""Host pace: how fast this host runs a fixed piece of pure-Python work now.

On a host that is a few virtual cores of a shared machine, speed can
switch between states up to 2x apart that last seconds to tens of
seconds.  A 20 s run sits in one or two of them, so raw seconds spread by
more than any useful regression bound across runs of the same code.

``Pace`` times a fixed reference kernel (Fraction elimination plus a small
integer loop, the mix the package itself runs) before each timed call,
after it, and every ``PERIOD`` seconds during it from an interval-timer
signal handler.  The time the handler takes is taken out of the call's
time.  A call's *adjusted* time is its own time scaled by
``NOMINAL_PACE_S`` over the mean kernel time sampled across it: the
seconds the call would take on a host where the kernel takes exactly
``NOMINAL_PACE_S``.  A change to the program moves adjusted times as it
moves raw ones; a change of host state moves both the call and the kernel
and cancels out.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_PACE_S = 0.002  # about the kernel's median time on a 2-vCPU Xeon VM, Python 3.11
PERIOD = 0.25
KERNEL_REPEATS = 5


def kernel():
    """Fixed work: Fraction elimination of a 9x9 matrix and an integer loop."""
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    s = 0
    for a in range(2000):
        s = (s * 31 + a * a) % 10007
    return s


def sample():
    """Median kernel time of a few back-to-back runs."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Pace:
    """Samples the pace around and during timed calls."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds taken by samples inside timed calls

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - t0

    def timed(self, call):
        """(result, raw seconds, adjusted seconds) of ``call()``.

        Raw seconds exclude the samples taken while the call ran."""
        first = len(self.samples)
        self.samples.append(sample())
        spent = self.spent
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            t0 = perf_counter()
            result = call()
            elapsed = perf_counter() - t0 - (self.spent - spent)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(sample())
        return result, elapsed, adjusted(elapsed, self.samples[first:])


def adjusted(seconds, paces):
    """``seconds`` scaled to a host whose kernel time is ``NOMINAL_PACE_S``,
    given kernel times sampled evenly across them."""
    return seconds * NOMINAL_PACE_S / statistics.mean(paces)
