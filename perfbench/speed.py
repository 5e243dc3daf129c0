"""Machine speed of the moment, for timings at a fixed reference speed.

On a shared 2-CPU virtual machine the same query was seen to take from
0.54 s to 0.99 s in one process, in phases lasting seconds to minutes;
CPU time tracked wall time, so the processor itself ran slower.  The
kernel below does the kind of work jetjac does (dict updates, tuple
keys, big integers, Fractions) and takes REFERENCE_S at the reference
speed.  A time measured between kernel passes, multiplied by scale(),
is that time at the reference speed.  Interpreter
start-up is scaled the same way by a bare interpreter start, which takes
REFERENCE_START_S at the reference speed.  The benchmark reports its
timings at the reference speed and prints the measured ones beside them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.004
REFERENCE_START_S = 0.06


def kernel() -> float:
    """Seconds one fixed pass of the kernel takes right now."""
    start = perf_counter()
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(2400):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + i * i % 1009
        if i % 10 == 0:
            x = (x * 3 + Fraction(i, 7)) / 2
    return perf_counter() - start


def scale(passes: list[float], i: int) -> float:
    """Factor from the time of query i, which ran between passes[i] and
    passes[i + 1], to the reference speed.  The speed is taken as the mean
    of the two passes on either side of the query: its latency already
    averages the speed over its whole duration, and a query of a second
    scaled by the two instants at its ends alone came out noisier than
    unscaled."""
    window = passes[max(i - 1, 0) : i + 3]
    return REFERENCE_S * len(window) / sum(window)
