"""Host-scaled timing.

On a shared 2-core host the speed of the whole machine flips between a fast
and a slow state, up to 1.8x apart, in stretches from milliseconds to tens of
seconds.  One 60 s run of the fibration ops read 13.4 ops/s by wall clock in
its first half and 23.7 in its second.  So every timed call runs against a
fixed reference kernel: the kernel is timed right before and right after the
call and, every SAMPLE_EVERY_S during it, from a SIGALRM handler.  The call's
wall time, less the time spent in the handler, is divided by the mean of
those kernel times and multiplied by REF_NOMINAL_S: the result is the call's
time on a host that runs the kernel in exactly 1 ms.  The kernel is the
benchmark's own code, so a change to gmepw cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

REF_NOMINAL_S = 1e-3
SAMPLE_EVERY_S = 0.05

# Gaussian elimination over Fraction on a fixed 8 x 8 matrix: the same kind
# of work as the library's.
REF_MATRIX = [[Fraction(1, i + j + 1) + (i == j) for j in range(8)] for i in range(8)]


def _reference_kernel() -> Fraction:
    m = [row[:] for row in REF_MATRIX]
    det = Fraction(1)
    for c in range(len(m)):
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _kernel_s() -> float:
    t0 = perf_counter()
    _reference_kernel()
    return perf_counter() - t0


def reference_s() -> float:
    """The median of three timed kernel runs, so that one run cut into by the
    scheduler does not skew the calls timed against it."""
    return statistics.median(_kernel_s() for _ in range(3))


class HostClock:
    """Times calls and scales them to the reference host."""

    def __init__(self):
        self.last = reference_s()
        self.refs = [self.last]  # the kernel time taken after each call
        self._inside: list[float] = []
        self._handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        t = _kernel_s()
        self._inside.append(t)
        self._handler_s += t

    def run(self, fn: Callable[[], Any]) -> tuple[Any, Exception | None, float, float]:
        """Call fn; return (result, exception raised or None, wall s, scaled s)."""
        self._inside, self._handler_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the caller counts it as a failed call
            result, error = None, exc
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - self._handler_s
        after = reference_s()
        host = statistics.fmean([self.last, *self._inside, after])
        self.last = after
        self.refs.append(after)
        return result, error, wall, wall * REF_NOMINAL_S / host
